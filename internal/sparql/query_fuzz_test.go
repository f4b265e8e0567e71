package sparql

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/turtle"
)

// FuzzParseQuery holds the query parser to three properties on any
// input (seeds: testdata/fuzz/FuzzParseQuery): it does not panic, it
// refuses with a *SyntaxError, and every constant term of a query it
// accepts — in a triple pattern or a FILTER — reads back unchanged
// after the ntriples Writer prints it: the query lexer and the
// N-Triples reader share one term reader, and the Writer escapes all it
// refuses. The seed that mixes the removed forms (UNION, OPTIONAL,
// BOUND, REGEX, &&, ||, !, arithmetic) is refused; its text is a row of
// TestUnsupportedSPARQLRejected.
func FuzzParseQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("query %q: error %T %v, want a *SyntaxError", src, err, err)
			}
			return
		}
		var terms []rdf.Term
		for _, p := range q.Patterns {
			terms = append(terms, p.S, p.P, p.O)
		}
		for _, f := range q.Filters {
			for _, e := range []Expr{f.Left, f.Right} {
				if c, ok := e.(*TermExpr); ok {
					terms = append(terms, c.Term)
				}
			}
		}
		for _, term := range terms {
			if term.IsVar() {
				continue
			}
			var sb strings.Builder
			tr := rdf.Triple{S: rdf.NewIRI("http://e/s"), P: rdf.NewIRI("http://e/p"), O: term}
			if err := ntriples.WriteAll(&sb, []rdf.Triple{tr}); err != nil {
				t.Fatalf("query %q: writing %v: %v", src, term, err)
			}
			back, err := turtle.ParseNTriplesString(sb.String())
			if err != nil || len(back) != 1 || back[0] != tr {
				t.Fatalf("query %q: term %#v is written as %q, which reads back as %v, %v", src, term, sb.String(), back, err)
			}
		}
	})
}
