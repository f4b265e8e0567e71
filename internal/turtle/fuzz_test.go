package turtle

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

// FuzzParseTurtle holds the parser to the readers it replaced, on any
// input (seeds: testdata/fuzz/FuzzParseTurtle):
//
//   - it does not panic;
//   - where it and the retained Turtle parser (turtle_reference_test.go)
//     both accept a document, they read the same triples but for the one
//     deliberate change that can show on such an input: a \uXXXX or
//     \UXXXXXXXX in an IRI is decoded, where the old parser kept it as
//     written. Every other deliberate change (raw characters IRIREF
//     refuses, unescaped '(', ')' and '\” in local names, '_' in
//     language tags, a raw CR in a short string) only refuses inputs;
//   - likewise its N-Triples mode and the retained N-Triples reader
//     (ntriples_reference_test.go), which decoded every IRI escape;
//   - a document the N-Triples mode accepts is Turtle with the same
//     triples.
func FuzzParseTurtle(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		got, err := ParseString(src)
		if ref, refErr := refParseTurtle(src); err == nil && refErr == nil {
			sameTriples(t, "turtle", src, got, ref, decodeIRI)
		}
		nt, ntErr := ParseNTriplesString(src)
		if ref, refErr := refParseNTriples(src); ntErr == nil && refErr == nil {
			sameTriples(t, "ntriples", src, nt, ref, nil)
		}
		if ntErr == nil {
			if err != nil {
				t.Fatalf("N-Triples %q: Turtle refuses it: %v", src, err)
			}
			sameTriples(t, "N-Triples as Turtle", src, got, nt, nil)
		}
	})
}

// sameTriples fails t unless got and ref hold the same triples, once
// norm (when not nil) has been applied to each of ref's terms.
func sameTriples(t *testing.T, what, src string, got, ref []rdf.Triple, norm func(rdf.Term) rdf.Term) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s %q: %d triples, the reference reads %d", what, src, len(got), len(ref))
	}
	for i := range got {
		want := ref[i]
		if norm != nil {
			want = rdf.Triple{S: norm(want.S), P: norm(want.P), O: norm(want.O)}
		}
		if got[i] != want {
			t.Fatalf("%s %q: triple %d is %v, the reference reads %v", what, src, i, got[i], ref[i])
		}
	}
}

// decodeIRI decodes the UCHARs of an IRI, or of a literal's datatype,
// as IRIREF now does.
func decodeIRI(term rdf.Term) rdf.Term {
	decode := func(s string) string {
		var sb strings.Builder
		for i := 0; i < len(s); {
			if s[i] == '\\' && i+1 < len(s) && (s[i+1] == 'u' || s[i+1] == 'U') {
				if r, n, err := rdf.DecodeEscape(s[i:]); err == nil {
					sb.WriteRune(r)
					i += n
					continue
				}
			}
			sb.WriteByte(s[i])
			i++
		}
		return sb.String()
	}
	if term.IsIRI() {
		term.Value = decode(term.Value)
	}
	term.Datatype = decode(term.Datatype)
	return term
}
