package sparql_test

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/qald"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/testutil"
)

// The fmt/strings.Builder renderers rdf.Term, rdf.Triple and
// sparql.Query shipped before the append-based writer, kept verbatim as
// the oracle its output must equal byte for byte wherever the one
// printer left the text alone: the text is the plan-cache key of a
// FILTER and part of every reply. The one printer changed it on
// purpose in two places, where the old text did not read back: PN_LOCAL
// escapes and \uXXXX escapes in terms (the 25 changed terms of the
// built-in KB are pinned by TestKBTermsReadBack instead), and a FILTER's
// parentheses, which were doubled.

// refPrefixes and refShorten are the standard prefix table and the
// shortening the old renderer took from the rdf package.
var refPrefixes = [...]struct{ prefix, ns string }{
	{"rdf", rdf.NSRDF}, {"rdfs", rdf.NSRDFS}, {"xsd", rdf.NSXSD}, {"owl", rdf.NSOWL},
	{"dbont", rdf.NSOnt}, {"dbprop", rdf.NSProp}, {"res", rdf.NSRes}, {"foaf", rdf.NSFOAF},
}

func refShorten(iri string) (string, bool) {
	for _, e := range refPrefixes {
		if strings.HasPrefix(iri, e.ns) {
			local := iri[len(e.ns):]
			if local == "" || strings.ContainsAny(local, "/#:") {
				continue
			}
			return e.prefix + ":" + local, true
		}
	}
	return "", false
}

func refTermString(t rdf.Term) string {
	switch t.Kind {
	case rdf.KindIRI:
		if q, ok := refShorten(t.Value); ok {
			return q
		}
		return "<" + t.Value + ">"
	case rdf.KindLiteral:
		s := strconv.Quote(t.Value)
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" {
			if q, ok := refShorten(t.Datatype); ok {
				return s + "^^" + q
			}
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	case rdf.KindBlank:
		return "_:" + t.Value
	case rdf.KindVar:
		return "?" + t.Value
	default:
		return "<<zero term>>"
	}
}

func refTripleString(t rdf.Triple) string {
	return fmt.Sprintf("%s %s %s .", refTermString(t.S), refTermString(t.P), refTermString(t.O))
}

func refQueryString(q *sparql.Query) string {
	var sb strings.Builder
	switch q.Form {
	case sparql.FormAsk:
		sb.WriteString("ASK WHERE {")
	default:
		sb.WriteString("SELECT ")
		if q.Distinct {
			sb.WriteString("DISTINCT ")
		}
		switch {
		case q.Count != nil:
			sb.WriteString("(COUNT(")
			if q.Count.Distinct {
				sb.WriteString("DISTINCT ")
			}
			if q.Count.Var == "" {
				sb.WriteString("*")
			} else {
				sb.WriteString("?" + q.Count.Var)
			}
			sb.WriteString(") AS ?" + q.Count.As + ")")
		case q.Star:
			sb.WriteString("*")
		default:
			for i, v := range q.Projection {
				if i > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString("?" + v)
			}
		}
		sb.WriteString(" WHERE {")
	}
	for _, p := range q.Patterns {
		sb.WriteString(" ")
		sb.WriteString(refTripleString(p))
	}
	for _, f := range q.Filters {
		sb.WriteString(" FILTER(" + f.String() + ") .")
	}
	sb.WriteString(" }")
	for i, k := range q.OrderBy {
		if i == 0 {
			sb.WriteString(" ORDER BY")
		}
		if k.Desc {
			sb.WriteString(" DESC(" + k.Expr.String() + ")")
		} else {
			sb.WriteString(" ASC(" + k.Expr.String() + ")")
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&sb, " OFFSET %d", q.Offset)
	}
	return sb.String()
}

// checkQueryText compares q's text with the reference's when every
// term of q prints as the reference printed it and q has no FILTER; it
// reports whether it compared. Otherwise q's text must parse back as q.
func checkQueryText(t *testing.T, q *sparql.Query) bool {
	t.Helper()
	unchanged := len(q.Filters) == 0
	for _, p := range q.Patterns {
		for _, term := range []rdf.Term{p.S, p.P, p.O} {
			unchanged = unchanged && term.String() == refTermString(term)
		}
	}
	if !unchanged {
		back, err := sparql.Parse(q.String())
		if err != nil || !reflect.DeepEqual(back.Patterns, q.Patterns) || !reflect.DeepEqual(back.Filters, q.Filters) {
			t.Errorf("Query.String() = %q, which parses as %v, %v", q.String(), back, err)
		}
		return false
	}
	if got, want := q.String(), refQueryString(q); got != want {
		t.Errorf("Query.String() = %q, reference %q", got, want)
	}
	for _, p := range q.Patterns {
		if got, want := p.String(), refTripleString(p); got != want {
			t.Errorf("Triple.String() = %q, reference %q", got, want)
		}
	}
	return true
}

// TestQueryTextMatchesReference renders every candidate query of every
// QALD and entity-template question — under the paper's configuration
// and with the §6 extensions on, which add ASK, COUNT and ORDER BY …
// LIMIT 1 forms — and every gold query, with both writers.
func TestQueryTextMatchesReference(t *testing.T) {
	k := kb.Default()
	var questions []string
	for _, q := range qald.FullSet() {
		questions = append(questions, q.Text)
	}
	questions = append(questions, testutil.EntityQuestions(k)...)
	ext := core.DefaultConfig()
	ext.Extensions = true
	candidates, changed := 0, 0
	for _, cfg := range []core.Config{core.DefaultConfig(), ext} {
		sys := core.New(cfg)
		for _, question := range questions {
			res := sys.AnswerCtx(context.Background(), question)
			if res.Answer == nil {
				continue
			}
			for i := range res.Answer.Candidates {
				cq := &res.Answer.Candidates[i]
				// The text is printed for a candidate that runs, and only
				// for one.
				if want := cq.Query.String(); cq.Executed && cq.SPARQL != want || !cq.Executed && cq.SPARQL != "" {
					t.Errorf("%q candidate %d (executed=%v): SPARQL = %q, Query.String() %q", question, i, cq.Executed, cq.SPARQL, want)
				}
				if checkQueryText(t, cq.Query) {
					candidates++
				} else {
					changed++
				}
			}
		}
	}
	if candidates < 10000 {
		t.Errorf("only %d candidate queries compared: the differential is not exercising §2.3", candidates)
	}
	t.Logf("%d candidates compared with the reference, %d name a term whose text changed", candidates, changed)

	// The shapes no candidate has: FILTER, OFFSET, a star projection,
	// and every literal and term kind.
	texts := []string{
		`SELECT * WHERE { ?s ?p ?o } LIMIT 3 OFFSET 2`,
		`SELECT ?c ?n WHERE { ?p dbont:birthPlace ?c . ?c dbont:populationTotal ?n FILTER(?n > 10000000) FILTER("x"@en != ?c) }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?b rdf:type dbont:Book }`,
		`ASK WHERE { <http://dbpedia.org/resource/Snow_(novel)> dbont:author res:Orhan_Pamuk }`,
		`SELECT ?x WHERE { ?x rdfs:label "Snow \"quoted\"\n"@en . ?x dbont:height "1.98"^^xsd:double . ?x <http://example.org/p#q> "7"^^<http://example.org/dt/a> } ORDER BY DESC(?x) ASC(?y)`,
	}
	for _, text := range texts {
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		checkQueryText(t, q)
	}
	for _, gold := range qald.FullSet() {
		if q, err := sparql.Parse(gold.GoldQuery); err == nil { // out-of-scope items have none
			checkQueryText(t, q)
		}
	}
	checkQueryText(t, &sparql.Query{Limit: -1, Patterns: []rdf.Triple{
		{S: rdf.NewBlank("b0"), P: rdf.Term{}, O: rdf.NewLiteral("plain")},
		{S: rdf.NewIRI("http://dbpedia.org/resource/"), P: rdf.NewIRI("http://dbpedia.org/resource/a/b"), O: rdf.NewLangLiteral("é", "fr")},
	}})
}
