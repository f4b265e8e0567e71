package sparql

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/rdf"
	"repro/internal/turtle"
)

// TestKBTermsReadBack: every term of the built-in KB, and of a KB that
// kbgen writes with other flags, prints text that every reader reads
// back as that term (checkPrinted), and the KB's N-Triples dump reads
// back as its triples. 25 of the built-in KB's terms print with PN_LOCAL
// escapes — res:Snow_\(novel\), res:Madison\,_Wisconsin,
// res:Washington\,_D.C\. — which the printer before rdf/print.go left
// out, so the readers refused or misread its text.
func TestKBTermsReadBack(t *testing.T) {
	for _, c := range []struct {
		name    string
		k       *kb.KB
		escaped int // terms whose text holds an escape; -1: any
	}{
		{"built-in", kb.Default(), 25},
		{"kbgen -seed 7 -persons 1000 -cities 200 -books 500",
			kb.Build(kb.Config{Seed: 7, SyntheticPersons: 1000, SyntheticCities: 200, SyntheticBooks: 500}), -1},
	} {
		sn := c.k.Store.Snapshot()
		escaped := 0
		for _, term := range sn.TermsView() {
			if term.IsZero() {
				continue // the dictionary's reserved ID 0
			}
			checkPrinted(t, spo(term))
			if strings.Contains(term.String(), `\`) {
				escaped++
			}
		}
		if c.escaped >= 0 && escaped != c.escaped {
			t.Errorf("%s: %d terms print with an escape; want %d", c.name, escaped, c.escaped)
		}
		var sb strings.Builder
		if err := rdf.WriteNTriples(&sb, sn.Triples()); err != nil {
			t.Fatal(err)
		}
		back, err := turtle.ParseNTriplesString(sb.String())
		if err != nil || !reflect.DeepEqual(back, sn.Triples()) {
			t.Errorf("%s: the N-Triples dump reads back as %d triples, %v; want the KB's %d", c.name, len(back), err, sn.Len())
		}
	}
}

// FuzzPrintTerm holds the printer to the readers on any input (seeds
// below): a term that the Turtle reader accepts as an object prints, in
// both modes, text that every reader reads back as that term.
func FuzzPrintTerm(f *testing.F) {
	for _, seed := range []string{
		`res:Snow_\(novel\)`, `res:Washington\,_D.C\.`, `res:it\'s`, `res:\-1`, `res:a%41\%`, `res:Café`,
		`<http://dbpedia.org/resource/a\u0020b>`, `<http://e/\u007Bo\u007D>`, `<http://e/é#x>`,
		`"tab\t\"q\" \u0007 \U0001F600"`, `"x"@en-US`, `"1"^^xsd:integer`, `"x"^^<http://e/dt>`,
		"'''it's\nlong'''", `1.5`, `-.5`, `1e3`, `true`, `_:b-1`, `"\\"`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, err := turtle.ParseString("<http://e/s> <http://e/p> " + src + " .")
		if err != nil || len(got) != 1 || got[0] != spo(got[0].O) {
			return
		}
		checkPrinted(t, got[0])
	})
}
