package sparql

import (
	"context"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Additional solution-modifier coverage: multi-key ordering, string
// ordering, ASC keyword, LIMIT 0 and combined modifiers.

func modGraph() *store.Store {
	st := store.New()
	add := func(name string, team string, h float64) {
		p := rdf.Res(name)
		st.Add(rdf.Triple{S: p, P: rdf.Ont("team"), O: rdf.Res(team)})
		st.Add(rdf.Triple{S: p, P: rdf.Ont("height"), O: rdf.NewDouble(h)})
	}
	add("Alice", "Reds", 1.7)
	add("Bob", "Reds", 1.9)
	add("Cara", "Blues", 1.8)
	add("Dan", "Blues", 1.6)
	return st
}

func TestOrderByMultipleKeys(t *testing.T) {
	st := modGraph()
	res := exec(t, st, `SELECT ?p ?t ?h WHERE { ?p dbont:team ?t . ?p dbont:height ?h }
		ORDER BY ?t DESC(?h)`)
	if len(res.Solutions()) != 4 {
		t.Fatalf("rows = %d", len(res.Solutions()))
	}
	wantOrder := []string{"Cara", "Dan", "Bob", "Alice"} // Blues desc-h, Reds desc-h
	for i, want := range wantOrder {
		if got := res.Solutions()[i]["p"].LocalName(); got != want {
			t.Errorf("row %d = %s, want %s", i, got, want)
		}
	}
}

func TestOrderByAscKeyword(t *testing.T) {
	st := modGraph()
	res := exec(t, st, `SELECT ?p WHERE { ?p dbont:height ?h } ORDER BY ASC(?h) LIMIT 1`)
	if res.Solutions()[0]["p"] != rdf.Res("Dan") {
		t.Errorf("shortest = %v", res.Solutions()[0]["p"])
	}
}

func TestOrderByStringValues(t *testing.T) {
	st := modGraph()
	res := exec(t, st, `SELECT ?p WHERE { ?p dbont:team res:Reds } ORDER BY ?p`)
	if res.Solutions()[0]["p"] != rdf.Res("Alice") || res.Solutions()[1]["p"] != rdf.Res("Bob") {
		t.Errorf("order = %v", res.Solutions())
	}
}

func TestLimitZero(t *testing.T) {
	st := modGraph()
	res := exec(t, st, `SELECT ?p WHERE { ?p dbont:height ?h } LIMIT 0`)
	if len(res.Solutions()) != 0 {
		t.Errorf("LIMIT 0 returned %d rows", len(res.Solutions()))
	}
}

func TestLimitOffsetCombined(t *testing.T) {
	st := modGraph()
	all := exec(t, st, `SELECT ?p WHERE { ?p dbont:height ?h } ORDER BY ?h`)
	page := exec(t, st, `SELECT ?p WHERE { ?p dbont:height ?h } ORDER BY ?h LIMIT 2 OFFSET 1`)
	if len(page.Solutions()) != 2 {
		t.Fatalf("page rows = %d", len(page.Solutions()))
	}
	if page.Solutions()[0]["p"] != all.Solutions()[1]["p"] ||
		page.Solutions()[1]["p"] != all.Solutions()[2]["p"] {
		t.Error("pagination window wrong")
	}
}

func TestCountWithModifiersIgnoresLimit(t *testing.T) {
	// COUNT aggregates the full solution set; modifiers that would
	// apply to rows are irrelevant to the single aggregate row.
	st := modGraph()
	res := exec(t, st, `SELECT (COUNT(?p) AS ?n) WHERE { ?p dbont:height ?h }`)
	if res.Solutions()[0]["n"] != rdf.NewInteger(4) {
		t.Errorf("count = %v", res.Solutions()[0]["n"])
	}
}

// TestOrderByUnboundSortsFirst: a key over a variable no pattern binds
// is unbound in every row, so it orders nothing and the next key
// decides. OPTIONAL, which left a key unbound in some rows only, is
// refused.
func TestOrderByUnboundSortsFirst(t *testing.T) {
	st := modGraph()
	res := exec(t, st, `SELECT ?p ?h WHERE { ?p dbont:team ?t . ?p dbont:height ?h } ORDER BY ?z ?h`)
	want := []string{"Dan", "Alice", "Cara", "Bob"}
	if res.Len() != len(want) {
		t.Fatalf("rows = %d", res.Len())
	}
	for i, name := range want {
		if got := res.Solutions()[i]["p"]; got != rdf.Res(name) {
			t.Errorf("row %d = %v, want %s", i, got, name)
		}
	}
	wantUnsupported(t, `SELECT ?p ?h WHERE { ?p dbont:team ?t . OPTIONAL { ?p dbont:height ?h } } ORDER BY ?h`, "OPTIONAL")
}

// TestLimitOverflow: a LIMIT or OFFSET that does not fit in an int is a
// syntax error, and the largest int LIMIT after an OFFSET keeps every
// remaining row on each result path.
func TestLimitOverflow(t *testing.T) {
	st := testGraph()
	for _, c := range []struct {
		src  string
		rows int // -1: a *SyntaxError
	}{
		{`SELECT ?x WHERE { ?x rdf:type dbont:Book } LIMIT 18446744073709551617`, -1},
		{`SELECT ?x WHERE { ?x rdf:type dbont:Book } LIMIT 9223372036854775808`, -1},
		{`SELECT ?x WHERE { ?x rdf:type dbont:Book } OFFSET 9223372036854775808`, -1},
		{`SELECT ?x WHERE { ?x rdf:type dbont:Book } LIMIT 9223372036854775807 OFFSET 1`, 3},
		{`SELECT DISTINCT ?x WHERE { ?x rdf:type dbont:Book } LIMIT 9223372036854775807 OFFSET 1`, 3},
		{`SELECT DISTINCT ?x ?a WHERE { ?x dbont:author ?a } LIMIT 9223372036854775807 OFFSET 1`, 3},
		{`SELECT ?x WHERE { ?x rdf:type dbont:Book } ORDER BY ?x LIMIT 9223372036854775807 OFFSET 9223372036854775807`, 0},
	} {
		q, err := Parse(c.src)
		if c.rows < 0 {
			if _, ok := err.(*SyntaxError); !ok {
				t.Errorf("%s: err = %v, want a *SyntaxError", c.src, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		res, err := ExecuteCtx(context.Background(), st.Snapshot(), q)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if res.Len() != c.rows {
			t.Errorf("%s: %d rows, want %d", c.src, res.Len(), c.rows)
		}
	}
}
