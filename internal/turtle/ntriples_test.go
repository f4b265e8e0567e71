package turtle_test

import (
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/turtle"
)

// The N-Triples mode of the reader, line by line.

func TestParseBasicTriples(t *testing.T) {
	src := `
# a comment line
<http://dbpedia.org/resource/Orhan_Pamuk> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Writer> .
<http://dbpedia.org/resource/Orhan_Pamuk> <http://www.w3.org/2000/01/rdf-schema#label> "Orhan Pamuk"@en .
<http://dbpedia.org/resource/Michael_Jordan> <http://dbpedia.org/ontology/height> "1.98"^^<http://www.w3.org/2001/XMLSchema#double> .
_:b0 <http://example.org/p> "plain" .
`
	triples, err := turtle.ParseNTriplesString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 4 {
		t.Fatalf("parsed %d triples, want 4", len(triples))
	}
	if triples[0].S != rdf.Res("Orhan_Pamuk") || triples[0].P != rdf.Type() || triples[0].O != rdf.Ont("Writer") {
		t.Errorf("triple 0 = %v", triples[0])
	}
	if triples[1].O != rdf.NewLangLiteral("Orhan Pamuk", "en") {
		t.Errorf("triple 1 object = %v", triples[1].O)
	}
	if triples[2].O != rdf.NewTypedLiteral("1.98", rdf.XSDDouble) {
		t.Errorf("triple 2 object = %v", triples[2].O)
	}
	if !triples[3].S.IsBlank() || triples[3].S.Value != "b0" {
		t.Errorf("triple 3 subject = %v", triples[3].S)
	}
}

func TestParseEscapes(t *testing.T) {
	src := `<http://e/s> <http://e/p> "tab\there \"quoted\" é \U0001F600 line\nend" .`
	triples, err := turtle.ParseNTriplesString(src)
	if err != nil {
		t.Fatal(err)
	}
	want := "tab\there \"quoted\" é 😀 line\nend"
	if got := triples[0].O.Value; got != want {
		t.Errorf("unescaped = %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p> "unterminated .`,
		`<http://e/s> <http://e/p> .`,
		`<http://e/s> <http://e/p> <http://e/o>`, // missing dot
		`"literal" <http://e/p> <http://e/o> .`,  // literal subject
		`<http://e/s> "literal" <http://e/o> .`,  // literal predicate
		`<http://e/s> _:b <http://e/o> .`,        // blank predicate
		`<http://e/s> <http://e/p> "bad \q escape" .`,
		`<http://e/s> <http://e/p> "trunc \u12" .`,
		`<> <http://e/p> <http://e/o> .`, // empty IRI
		`<http://e/s> <http://e/p> <http://e/o> . extra`,
		`<http://e/s <http://e/p> <http://e/o> .`,                                            // a raw space and '<' in an IRI
		`<http://e/s> <http://e/p> <http://e/o> .  <http://e/s> <http://e/p> <http://e/o> .`, // two on a line
		"<http://e/s>\n<http://e/p> <http://e/o> .",                                          // one over two lines
		`<http://e/s> <http://e/p> 42 .`,                                                     // Turtle shorthand
		`<http://e/s> <http://e/p> """long""" .`,
		`<http://e/s> <http://e/p> 'single' .`,
		`@prefix e: <http://e/> .`,
	}
	for _, src := range bad {
		if _, err := turtle.ParseNTriplesString(src); err == nil {
			t.Errorf("expected error for %q", src)
		} else {
			if _, ok := err.(*turtle.ParseError); !ok {
				t.Errorf("error for %q is %T, want *turtle.ParseError", src, err)
			}
		}
	}
}

func TestParseErrorLineNumber(t *testing.T) {
	src := "<http://e/s> <http://e/p> <http://e/o> .\n\n# comment\nbroken line\n"
	_, err := turtle.ParseNTriplesString(src)
	pe, ok := err.(*turtle.ParseError)
	if !ok {
		t.Fatalf("err = %v (%T), want *turtle.ParseError", err, err)
	}
	if pe.Line != 4 {
		t.Errorf("error line = %d, want 4", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 4") {
		t.Errorf("Error() = %q, should mention line 4", pe.Error())
	}
}

func TestCommentAndBlankLinesSkipped(t *testing.T) {
	src := "\n\n# only comments\n# here\n"
	triples, err := turtle.ParseNTriplesString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 0 {
		t.Errorf("parsed %d triples from comments", len(triples))
	}
}

func TestParseEmptyInput(t *testing.T) {
	if triples, err := turtle.ParseNTriplesString(""); err != nil || len(triples) != 0 {
		t.Errorf("ParseNTriplesString(\"\") = %v, %v; want no triples and no error", triples, err)
	}
}
