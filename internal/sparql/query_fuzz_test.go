package sparql

import (
	"strings"
	"testing"

	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/turtle"
)

// FuzzParseQuery holds the query parser to two properties on any input
// (seeds: testdata/fuzz/FuzzParseQuery): it does not panic, and every
// constant term of a query it accepts — in a triple pattern, an
// OPTIONAL or UNION block, or a FILTER — reads back unchanged after the
// ntriples Writer prints it: the query lexer and the N-Triples reader
// share one term reader, and the Writer escapes all it refuses.
func FuzzParseQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		var terms []rdf.Term
		addPatterns := func(ps []rdf.Triple) {
			for _, p := range ps {
				terms = append(terms, p.S, p.P, p.O)
			}
		}
		addPatterns(q.Patterns)
		for _, opt := range q.Optionals {
			addPatterns(opt)
		}
		for _, block := range q.Unions {
			for _, branch := range block {
				addPatterns(branch)
			}
		}
		for _, e := range q.Filters {
			terms = appendExprTerms(terms, e)
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

// appendExprTerms appends the constant terms of a FILTER expression.
func appendExprTerms(terms []rdf.Term, e Expr) []rdf.Term {
	switch e := e.(type) {
	case *TermExpr:
		return append(terms, e.Term)
	case *BinaryExpr:
		return appendExprTerms(appendExprTerms(terms, e.Left), e.Right)
	case *UnaryExpr:
		return appendExprTerms(terms, e.Expr)
	case *CallExpr:
		for _, a := range e.Args {
			terms = appendExprTerms(terms, a)
		}
	}
	return terms
}
