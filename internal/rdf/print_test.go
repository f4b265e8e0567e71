package rdf_test

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
	"repro/internal/turtle"
)

// The N-Triples writer is the printer's full-IRI mode: what it writes
// reads back through turtle.ParseNTriples.

func TestWriteRoundTrip(t *testing.T) {
	triples := []rdf.Triple{
		{S: rdf.Res("Orhan_Pamuk"), P: rdf.Type(), O: rdf.Ont("Writer")},
		{S: rdf.Res("Orhan_Pamuk"), P: rdf.Label(), O: rdf.NewLangLiteral("Orhan Pamuk", "en")},
		{S: rdf.Res("Michael_Jordan"), P: rdf.Ont("height"), O: rdf.NewDouble(1.98)},
		{S: rdf.Res("X"), P: rdf.Ont("note"), O: rdf.NewLiteral("line1\nline2\t\"q\" \\ done")},
		{S: rdf.NewBlank("b0"), P: rdf.Ont("p"), O: rdf.NewLiteral("v")},
	}
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, triples); err != nil {
		t.Fatal(err)
	}
	back, err := turtle.ParseNTriplesString(buf.String())
	if err != nil {
		t.Fatalf("re-parse: %v (output: %q)", err, buf.String())
	}
	if len(back) != len(triples) {
		t.Fatalf("round trip count %d, want %d", len(back), len(triples))
	}
	for i := range triples {
		if back[i] != triples[i] {
			t.Errorf("round trip[%d] = %v, want %v", i, back[i], triples[i])
		}
	}
}

// TestWriteRejectsVariables: a triple with a variable or a zero term
// has no N-Triples form.
func TestWriteRejectsVariables(t *testing.T) {
	for _, tr := range []rdf.Triple{
		{S: rdf.NewVar("x"), P: rdf.Ont("p"), O: rdf.Res("O")},
		{S: rdf.Res("S"), P: rdf.Ont("p"), O: rdf.Term{}},
	} {
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, []rdf.Triple{{S: rdf.Res("S"), P: rdf.Ont("p"), O: rdf.Res("O")}, tr}); err == nil {
			t.Errorf("%v: written as %q; want an error", tr, buf.String())
		}
	}
}

// TestIRIEscaping: each character IRIREF refuses raw is written as its
// \uXXXX escape, and the IRI reads back unchanged.
func TestIRIEscaping(t *testing.T) {
	for _, iri := range []string{
		"http://e/with space", "http://e/{o}#}", "http://e/a|b^c`d", `http://e/back\slash`,
		"http://e/<\"quoted\">", "http://e/tab\tnewline\n", "http://e/é中😀",
	} {
		tr := rdf.Triple{S: rdf.NewIRI(iri), P: rdf.Ont("p"), O: rdf.NewTypedLiteral("x", iri)}
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, []rdf.Triple{tr}); err != nil {
			t.Fatal(err)
		}
		back, err := turtle.ParseNTriplesString(buf.String())
		if err != nil {
			t.Errorf("%q: written as %q, which reads as %v", iri, buf.String(), err)
			continue
		}
		if back[0] != tr {
			t.Errorf("%q: written as %q, read back as %v", iri, buf.String(), back[0])
		}
	}
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, []rdf.Triple{{S: rdf.NewIRI("http://e/with space"), P: rdf.Ont("p"), O: rdf.Res("O")}}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `<http://e/with\u0020space>`) {
		t.Errorf("space not written as \\u0020: %q", buf.String())
	}
}

// Property: writing then parsing any literal value, or any IRI,
// survives round-trip.
func TestLiteralRoundTripProperty(t *testing.T) {
	prop := func(val string, lang bool) bool {
		if !validUTF8(val) {
			return true // skip invalid encodings; scanner normalises them
		}
		var o rdf.Term
		if lang {
			o = rdf.NewLangLiteral(val, "en")
		} else {
			o = rdf.NewLiteral(val)
		}
		tr := rdf.Triple{S: rdf.Res("S"), P: rdf.Ont("p"), O: o}
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, []rdf.Triple{tr}); err != nil {
			return false
		}
		back, err := turtle.ParseNTriplesString(buf.String())
		if err != nil || len(back) != 1 {
			return false
		}
		return back[0] == tr
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	iriProp := func(val string) bool {
		if !validUTF8(val) {
			return true
		}
		tr := rdf.Triple{S: rdf.NewIRI("http://e/" + val), P: rdf.Ont("p"), O: rdf.NewIRI("urn:" + val)}
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, []rdf.Triple{tr}); err != nil {
			return false
		}
		back, err := turtle.ParseNTriplesString(buf.String())
		return err == nil && len(back) == 1 && back[0] == tr
	}
	if err := quick.Check(iriProp, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func validUTF8(s string) bool {
	return strings.ToValidUTF8(s, "") == s
}
