package sparql

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

func TestCountStar(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT (COUNT(*) AS ?n) WHERE { ?b a dbont:Book }`)
	if len(res.Solutions()) != 1 {
		t.Fatalf("solutions = %v", res.Solutions())
	}
	if got := res.Solutions()[0]["n"]; got != rdf.NewInteger(4) {
		t.Errorf("count = %v, want 4", got)
	}
	if len(res.Vars) != 1 || res.Vars[0] != "n" {
		t.Errorf("vars = %v", res.Vars)
	}
}

func TestCountVarAndDistinct(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT (COUNT(?a) AS ?n) WHERE { ?b dbont:author ?a }`)
	if res.Solutions()[0]["n"] != rdf.NewInteger(4) {
		t.Errorf("COUNT(?a) = %v, want 4 (one per row)", res.Solutions()[0]["n"])
	}
	res2 := exec(t, st, `SELECT (COUNT(DISTINCT ?a) AS ?n) WHERE { ?b dbont:author ?a }`)
	if res2.Solutions()[0]["n"] != rdf.NewInteger(2) {
		t.Errorf("COUNT(DISTINCT ?a) = %v, want 2", res2.Solutions()[0]["n"])
	}
}

func TestCountEmptyMatch(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT (COUNT(?x) AS ?n) WHERE { ?x dbont:author res:Nobody }`)
	if res.Solutions()[0]["n"] != rdf.NewInteger(0) {
		t.Errorf("count of empty = %v, want 0", res.Solutions()[0]["n"])
	}
}

// The UNION, nested-group and OPTIONAL tests below pin the refusal of
// the construct each exercised, on the query it ran.

func TestUnionTwoBranches(t *testing.T) {
	wantUnsupported(t, `SELECT DISTINCT ?x WHERE {
		{ ?x a dbont:Writer } UNION { ?x a dbont:BasketballPlayer }
	}`, "UNION")
}

func TestUnionJoinsWithRequiredPatterns(t *testing.T) {
	wantUnsupported(t, `SELECT ?b WHERE {
		?b a dbont:Book .
		{ ?b dbont:author res:Orhan_Pamuk } UNION { ?b dbont:author res:H_G_Wells }
	}`, "UNION")
}

func TestUnionThreeBranches(t *testing.T) {
	wantUnsupported(t, `SELECT DISTINCT ?x WHERE {
		{ ?x a dbont:Writer } UNION { ?x a dbont:BasketballPlayer } UNION { ?x a dbont:Book }
	}`, "UNION")
}

// TestNestedPlainGroupInlines: a nested group is refused, not inlined;
// its patterns written in the group answer.
func TestNestedPlainGroupInlines(t *testing.T) {
	wantUnsupported(t, `SELECT ?b WHERE { { ?b a dbont:Book . ?b dbont:author res:Orhan_Pamuk } }`, "nested group")
	if res := exec(t, testGraph(), `SELECT ?b WHERE { ?b a dbont:Book . ?b dbont:author res:Orhan_Pamuk }`); res.Len() != 3 {
		t.Errorf("rows = %d, want 3", res.Len())
	}
}

func TestOptionalLeftJoin(t *testing.T) {
	wantUnsupported(t, `SELECT ?w ?h WHERE {
		?w a dbont:Writer .
		OPTIONAL { ?w dbont:height ?h }
	}`, "OPTIONAL")
}

func TestOptionalWithBoundFilter(t *testing.T) {
	wantUnsupported(t, `SELECT ?w WHERE {
		?w a dbont:Writer .
		OPTIONAL { ?w dbont:height ?h }
		FILTER(!BOUND(?h))
	}`, "OPTIONAL")
}

func TestUnionOnlyGroup(t *testing.T) {
	wantUnsupported(t, `SELECT DISTINCT ?x WHERE {
		{ ?x dbont:height "1.98"^^xsd:double } UNION { ?x dbont:height "2.03"^^xsd:double }
	}`, "UNION")
}

func TestCountRendering(t *testing.T) {
	q := mustParse(`SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x a dbont:Book }`)
	s := q.String()
	if !strings.Contains(s, "COUNT(DISTINCT ?x) AS ?n") {
		t.Errorf("String() = %q", s)
	}
	// Round trip.
	if _, err := Parse(s); err != nil {
		t.Errorf("re-parse: %v", err)
	}
}

func TestUnionOptionalRendering(t *testing.T) {
	wantUnsupported(t, `SELECT ?x WHERE { ?x a dbont:Book . { ?x dbont:author res:A } UNION { ?x dbont:writer res:A } OPTIONAL { ?x dbont:numberOfPages ?p } }`, "UNION")
}

func TestCountParseErrors(t *testing.T) {
	bad := []string{
		`SELECT (COUNT(?x) AS ) WHERE { ?x ?p ?o }`,
		`SELECT (COUNT() AS ?n) WHERE { ?x ?p ?o }`,
		`SELECT (COUNT(?x)) WHERE { ?x ?p ?o }`,
		`SELECT (SUM(?x) AS ?n) WHERE { ?x ?p ?o }`,
		`SELECT ?y WHERE { OPTIONAL ?x ?p ?o }`,
		`SELECT ?y WHERE { { ?x ?p ?o } UNION }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestAskWithUnion(t *testing.T) {
	wantUnsupported(t, `ASK { { res:Snow dbont:author res:Orhan_Pamuk } UNION { res:Snow dbont:writer res:Orhan_Pamuk } }`, "UNION")
}
