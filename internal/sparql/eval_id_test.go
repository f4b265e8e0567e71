package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// buildTestGraph returns a small deterministic random graph.
func buildTestGraph(seed int64, n int) *store.Store {
	rng := rand.New(rand.NewSource(seed))
	st := store.New()
	subjects := []rdf.Term{rdf.Res("A"), rdf.Res("B"), rdf.Res("C"), rdf.Res("D"), rdf.Res("E")}
	preds := []rdf.Term{rdf.Ont("p"), rdf.Ont("q"), rdf.Ont("r")}
	objects := []rdf.Term{rdf.Res("A"), rdf.Res("B"), rdf.Res("C"),
		rdf.NewInteger(1), rdf.NewInteger(2), rdf.NewInteger(3)}
	for i := 0; i < n; i++ {
		st.Add(rdf.Triple{
			S: subjects[rng.Intn(len(subjects))],
			P: preds[rng.Intn(len(preds))],
			O: objects[rng.Intn(len(objects))],
		})
	}
	return st
}

// TestIDEngineMatchesTermSpace cross-checks the ID-space executor
// against the retained term-space reference evaluator over every query
// shape the engine supports: BGPs, UNION, OPTIONAL, FILTER (pushdown
// and deferred), DISTINCT, ORDER BY, LIMIT/OFFSET, ASK and COUNT.
func TestIDEngineMatchesTermSpace(t *testing.T) {
	queries := []string{
		`SELECT * WHERE { ?x dbont:p ?y . }`,
		`SELECT ?x ?z WHERE { ?x dbont:p ?y . ?y dbont:q ?z . }`,
		`SELECT * WHERE { ?x dbont:p ?x . }`, // repeated variable
		`SELECT ?x WHERE { ?x dbont:p ?y . FILTER(?y > 1) }`,
		`SELECT DISTINCT ?x WHERE { ?x dbont:p ?y . }`,
		`SELECT ?x ?y WHERE { ?x dbont:p ?y . } ORDER BY DESC(?y) ?x`,
		`SELECT ?x WHERE { ?x dbont:p ?y . } ORDER BY ?y LIMIT 3 OFFSET 2`,
		`SELECT * WHERE { { ?x dbont:p ?y . } UNION { ?x dbont:q ?y . } }`,
		`SELECT * WHERE { ?x dbont:p ?y . OPTIONAL { ?x dbont:q ?z . } }`,
		`SELECT * WHERE { ?x dbont:p ?y . OPTIONAL { ?x dbont:q ?z . } FILTER(BOUND(?z)) }`,
		`SELECT (COUNT(?x) AS ?n) WHERE { ?x dbont:p ?y . }`,
		`SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x dbont:p ?y . }`,
		`ASK WHERE { ?x dbont:p ?y . ?y dbont:r ?z . }`,
		`ASK WHERE { res:A dbont:p res:NoSuchEntity . }`, // unknown constant
		`SELECT ?x WHERE { ?x dbont:p res:NoSuchEntity . }`,
		`SELECT ?x ?y ?z WHERE { ?x dbont:p ?y . ?z dbont:q ?y . } ORDER BY ?x`,
	}
	for seed := int64(1); seed <= 5; seed++ {
		st := buildTestGraph(seed, 40)
		for _, src := range queries {
			q := MustParse(src)
			got, err := ExecuteCtx(context.Background(), st.Snapshot(), q)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, src, err)
			}
			want, err := ExecuteTermSpace(st, q)
			if err != nil {
				t.Fatalf("seed %d, %s: reference: %v", seed, src, err)
			}
			assertSameResult(t, fmt.Sprintf("seed %d, %s", seed, src), got, want)
		}
	}
}

func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Form != want.Form || got.Boolean != want.Boolean {
		t.Fatalf("%s: form/bool = (%v,%v), want (%v,%v)",
			label, got.Form, got.Boolean, want.Form, want.Boolean)
	}
	if len(got.Vars) != len(want.Vars) {
		t.Fatalf("%s: vars %v, want %v", label, got.Vars, want.Vars)
	}
	for i := range got.Vars {
		if got.Vars[i] != want.Vars[i] {
			t.Fatalf("%s: vars %v, want %v", label, got.Vars, want.Vars)
		}
	}
	if len(got.Solutions()) != len(want.Solutions()) {
		t.Fatalf("%s: %d solutions, want %d\ngot:  %v\nwant: %v",
			label, len(got.Solutions()), len(want.Solutions()), got.Solutions(), want.Solutions())
	}
	for i := range got.Solutions() {
		g, w := got.Solutions()[i], want.Solutions()[i]
		if len(g) != len(w) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, g, w)
		}
		for k, v := range w {
			if g[k] != v {
				t.Fatalf("%s: row %d = %v, want %v", label, i, g, w)
			}
		}
	}
}

// TestRowsetCompact pins the in-place compaction invariant the deferred
// FILTER path relies on: the write cursor never passes the read cursor,
// so filtering may safely reuse the buffer it is reading from, in order,
// for any keep pattern.
func TestRowsetCompact(t *testing.T) {
	build := func(n, stride int) rowset {
		rs := rowset{stride: stride}
		for i := 0; i < n; i++ {
			r := make([]store.ID, stride)
			for j := range r {
				r[j] = store.ID(i*stride + j + 1)
			}
			rs.push(r)
		}
		return rs
	}
	patterns := []func(i int) bool{
		func(int) bool { return true },
		func(int) bool { return false },
		func(i int) bool { return i%2 == 0 },
		func(i int) bool { return i >= 7 }, // drop a prefix
		func(i int) bool { return i < 3 },  // drop a suffix
		func(i int) bool { return i%3 != 1 },
	}
	for pi, keepIdx := range patterns {
		rs := build(10, 3)
		var wantRows [][3]store.ID
		for i := 0; i < 10; i++ {
			if keepIdx(i) {
				r := rs.row(i)
				wantRows = append(wantRows, [3]store.ID{r[0], r[1], r[2]})
			}
		}
		i := -1
		rs.compact(func([]store.ID) bool { i++; return keepIdx(i) })
		if rs.n != len(wantRows) {
			t.Fatalf("pattern %d: compact kept %d rows, want %d", pi, rs.n, len(wantRows))
		}
		for j, want := range wantRows {
			r := rs.row(j)
			if [3]store.ID{r[0], r[1], r[2]} != want {
				t.Fatalf("pattern %d: row %d = %v, want %v", pi, j, r, want)
			}
		}
	}
}

// TestProjectDistinctMatchesSet: projectDistinct keeps exactly the
// first occurrence of every projected row, in input order, whether the
// output stays under scanDistinct rows (found by scanning) or grows
// past it (found through the set built then) — single-column, with an
// unbound column, and multi-column.
func TestProjectDistinctMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ex executor
	for _, tc := range []struct {
		ids      int // distinct IDs per column, 0 included
		projCols []int
	}{
		{5, []int{1}}, {60, []int{1}}, {60, []int{-1}},
		{4, []int{0, 2}}, {9, []int{2, -1, 0}}, {9, []int{0, 1, 2}},
	} {
		rows := rowset{stride: 3}
		for i := 0; i < 400; i++ {
			rows.push([]store.ID{store.ID(rng.Intn(tc.ids)), store.ID(rng.Intn(tc.ids)), store.ID(rng.Intn(tc.ids))})
		}
		var want []store.ID
		seen := map[string]bool{}
		for i := 0; i < rows.n; i++ {
			var proj []store.ID
			for _, col := range tc.projCols {
				if col >= 0 {
					proj = append(proj, rows.row(i)[col])
				} else {
					proj = append(proj, 0)
				}
			}
			if key := fmt.Sprint(proj); !seen[key] {
				seen[key] = true
				want = append(want, proj...)
			}
		}
		got := ex.projectDistinct(&rows, tc.projCols)
		if got.n != len(seen) || fmt.Sprint(got.buf) != fmt.Sprint(want) {
			t.Fatalf("%+v: %d rows %v, want %d rows %v", tc, got.n, got.buf, len(seen), want)
		}
	}
}

// TestDeferredFilterAfterOptional covers the deferred-filter path the
// seed implemented with an aliased slice: a filter over an OPTIONAL
// variable must drop exactly the rows where it is unbound or false,
// preserving order.
func TestDeferredFilterAfterOptional(t *testing.T) {
	st := store.New()
	st.AddAll([]rdf.Triple{
		{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.NewInteger(1)},
		{S: rdf.Res("B"), P: rdf.Ont("p"), O: rdf.NewInteger(2)},
		{S: rdf.Res("C"), P: rdf.Ont("p"), O: rdf.NewInteger(3)},
		{S: rdf.Res("A"), P: rdf.Ont("q"), O: rdf.NewInteger(10)},
		{S: rdf.Res("C"), P: rdf.Ont("q"), O: rdf.NewInteger(30)},
	})
	res, err := ExecuteStringCtx(context.Background(), st.Snapshot(), `SELECT ?x ?z WHERE {
		?x dbont:p ?y .
		OPTIONAL { ?x dbont:q ?z . }
		FILTER(?z > 10)
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions()) != 1 {
		t.Fatalf("got %d solutions: %v", len(res.Solutions()), res.Solutions())
	}
	if got := res.Solutions()[0]["x"]; got != rdf.Res("C") {
		t.Fatalf("?x = %v, want res:C", got)
	}
}

// TestExecuteAgainstLiveWriter runs queries while a writer grows the
// store, under -race. Results are not asserted (the data is moving);
// the test exists to prove the executor's lock discipline and the
// TermsView contract hold during concurrent writes.
func TestExecuteAgainstLiveWriter(t *testing.T) {
	st := buildTestGraph(99, 30)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			st.Add(rdf.Triple{
				S: rdf.Res(fmt.Sprintf("W%d", i)),
				P: rdf.Ont("p"),
				O: rdf.NewInteger(int64(i)),
			})
		}
	}()
	q := MustParse(`SELECT DISTINCT ?x WHERE { ?x dbont:p ?y . FILTER(?y >= 0) } ORDER BY ?x`)
	for i := 0; i < 200; i++ {
		if _, err := ExecuteCtx(context.Background(), st.Snapshot(), q); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
