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

func TestUnionTwoBranches(t *testing.T) {
	st := testGraph()
	// writer OR basketball player.
	res := exec(t, st, `SELECT DISTINCT ?x WHERE {
		{ ?x a dbont:Writer } UNION { ?x a dbont:BasketballPlayer }
	}`)
	if len(res.Solutions()) != 4 {
		t.Fatalf("union rows = %d, want 4: %v", len(res.Solutions()), res.Solutions())
	}
}

func TestUnionJoinsWithRequiredPatterns(t *testing.T) {
	st := testGraph()
	// Books by Pamuk via either author or a hypothetical property.
	res := exec(t, st, `SELECT ?b WHERE {
		?b a dbont:Book .
		{ ?b dbont:author res:Orhan_Pamuk } UNION { ?b dbont:author res:H_G_Wells }
	}`)
	if len(res.Solutions()) != 4 {
		t.Errorf("rows = %d, want 4 (3 Pamuk + 1 Wells)", len(res.Solutions()))
	}
}

func TestUnionThreeBranches(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT DISTINCT ?x WHERE {
		{ ?x a dbont:Writer } UNION { ?x a dbont:BasketballPlayer } UNION { ?x a dbont:Book }
	}`)
	if len(res.Solutions()) != 8 {
		t.Errorf("rows = %d, want 8", len(res.Solutions()))
	}
}

func TestNestedPlainGroupInlines(t *testing.T) {
	st := testGraph()
	res := exec(t, st, `SELECT ?b WHERE { { ?b a dbont:Book . ?b dbont:author res:Orhan_Pamuk } }`)
	if len(res.Solutions()) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Solutions()))
	}
}

func TestOptionalLeftJoin(t *testing.T) {
	st := testGraph()
	// All writers, optionally with a height (none have one).
	res := exec(t, st, `SELECT ?w ?h WHERE {
		?w a dbont:Writer .
		OPTIONAL { ?w dbont:height ?h }
	}`)
	if len(res.Solutions()) != 2 {
		t.Fatalf("rows = %d, want 2 (writers kept without height)", len(res.Solutions()))
	}
	for _, sol := range res.Solutions() {
		if _, ok := sol["h"]; ok {
			t.Errorf("unexpected height binding: %v", sol)
		}
	}
	// Players all have heights: OPTIONAL binds.
	res2 := exec(t, st, `SELECT ?p ?h WHERE {
		?p a dbont:BasketballPlayer .
		OPTIONAL { ?p dbont:height ?h }
	}`)
	for _, sol := range res2.Solutions() {
		if _, ok := sol["h"]; !ok {
			t.Errorf("height not bound for %v", sol["p"])
		}
	}
}

func TestOptionalWithBoundFilter(t *testing.T) {
	st := testGraph()
	// Deferred filter over an OPTIONAL variable: !BOUND selects writers
	// without heights.
	res := exec(t, st, `SELECT ?w WHERE {
		?w a dbont:Writer .
		OPTIONAL { ?w dbont:height ?h }
		FILTER(!BOUND(?h))
	}`)
	if len(res.Solutions()) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Solutions()))
	}
}

func TestUnionOnlyGroup(t *testing.T) {
	st := testGraph()
	// No required patterns at all.
	res := exec(t, st, `SELECT DISTINCT ?x WHERE {
		{ ?x dbont:height "1.98"^^xsd:double } UNION { ?x dbont:height "2.03"^^xsd:double }
	}`)
	if len(res.Solutions()) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Solutions()))
	}
}

func TestCountRendering(t *testing.T) {
	q := MustParse(`SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x a dbont:Book }`)
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
	q := MustParse(`SELECT ?x WHERE { ?x a dbont:Book . { ?x dbont:author res:A } UNION { ?x dbont:writer res:A } OPTIONAL { ?x dbont:numberOfPages ?p } }`)
	s := q.String()
	if !strings.Contains(s, "UNION") || !strings.Contains(s, "OPTIONAL") {
		t.Errorf("String() = %q", s)
	}
	if _, err := Parse(s); err != nil {
		t.Errorf("re-parse of %q: %v", s, err)
	}
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
	st := testGraph()
	res := exec(t, st, `ASK { { res:Snow dbont:author res:Orhan_Pamuk } UNION { res:Snow dbont:writer res:Orhan_Pamuk } }`)
	if !res.Boolean {
		t.Error("ASK with union should be true")
	}
}
