package sparql

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/turtle"
)

// TestStringEscapes: a SPARQL query string and an UPDATE string decode
// every ECHAR and UCHAR that N-Triples does; a malformed one is an error.
func TestStringEscapes(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`"caf\u00e9"`, "café"},
		{`"\U0001F600"`, "😀"},
		{`'a\bb\fc'`, "a\bb\fc"},
		{`"\"\'\\\n\r\t"`, "\"'\\\n\r\t"},
	} {
		want := rdf.NewLiteral(c.want)
		if got, err := queryObject(c.src); err != nil || got != want {
			t.Errorf("query %s: %v, %v; want %q", c.src, got, err, c.want)
		}
		if got, err := updateObject(c.src); err != nil || got != want {
			t.Errorf("update %s: %v, %v; want %q", c.src, got, err, c.want)
		}
	}
	for _, src := range []string{`"\u00G9"`, `"\u12"`, `"\uD800"`, `"\U00110000"`, `"\q"`} {
		if _, err := queryObject(src); err == nil {
			t.Errorf("query %s: parsed; want an error", src)
		}
		if _, err := updateObject(src); err == nil {
			t.Errorf("update %s: parsed; want an error", src)
		}
	}
}

// TestLiteralsAgreeAcrossSyntaxes: each literal that N-Triples reads,
// or that the printer prints in full, is the same rdf.Term read back
// through Turtle, a SPARQL UPDATE and a SPARQL query.
func TestLiteralsAgreeAcrossSyntaxes(t *testing.T) {
	sources := []string{
		`"plain"`, `""`, `"caf\u00e9"`, `"caf\u00E9"@fr`, `"\U0001F600 \b\f"`,
		`"tab\tquote\"apos\'back\\slash\nline\rret"`, `"x"@en-GB`,
		`"42"^^<http://www.w3.org/2001/XMLSchema#integer>`, `"A\u00e9\u4e2d"^^<http://e/dt>`,
	}
	for _, term := range []rdf.Term{
		rdf.NewLiteral("tab\there \"quoted\" back\\slash\nline\rcarriage é 中 😀 \b\f"),
		rdf.NewLangLiteral("café", "fr"),
		rdf.NewTypedLiteral("1961-08-04", rdf.XSDDate),
	} {
		sources = append(sources, string(term.AppendNTriples(nil)))
	}
	for _, src := range sources {
		nt, err := turtle.ParseNTriplesString(`<http://e/s> <http://e/p> ` + src + " .\n")
		if err != nil {
			t.Errorf("ntriples %s: %v", src, err)
			continue
		}
		want := nt[0].O
		tt, err := turtle.ParseString(`<http://e/s> <http://e/p> ` + src + ` .`)
		if err != nil || tt[0].O != want {
			t.Errorf("turtle %s: %v (%v), ntriples %v", src, tt, err, want)
		}
		if got, err := updateObject(src); err != nil || got != want {
			t.Errorf("update %s: %v (%v), ntriples %v", src, got, err, want)
		}
		if got, err := queryObject(src); err != nil || got != want {
			t.Errorf("query %s: %v (%v), ntriples %v", src, got, err, want)
		}
	}
}

// queryObject parses a query whose one pattern has the literal src as
// its object, and returns that object.
func queryObject(src string) (rdf.Term, error) {
	q, err := Parse(`SELECT ?s WHERE { ?s <http://e/p> ` + src + ` }`)
	if err != nil {
		return rdf.Term{}, err
	}
	return q.Patterns[0].O, nil
}

// updateObject parses an INSERT DATA of one triple with the literal src
// as its object, and returns that object.
func updateObject(src string) (rdf.Term, error) {
	ops, err := ParseUpdate(`INSERT DATA { <http://e/s> <http://e/p> ` + src + ` }`)
	if err != nil {
		return rdf.Term{}, err
	}
	return ops[0].Triples[0].O, nil
}
