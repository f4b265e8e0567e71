package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
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
// shape the engine supports: BGPs, FILTER (pushed down, constant-only
// and over a never-bound variable), DISTINCT, ORDER BY, LIMIT/OFFSET,
// ASK and COUNT.
func TestIDEngineMatchesTermSpace(t *testing.T) {
	queries := []string{
		`SELECT * WHERE { ?x dbont:p ?y . }`,
		`SELECT ?x ?z WHERE { ?x dbont:p ?y . ?y dbont:q ?z . }`,
		`SELECT * WHERE { ?x dbont:p ?x . }`, // repeated variable
		`SELECT ?x WHERE { ?x dbont:p ?y . FILTER(?y > 1) }`,
		`SELECT DISTINCT ?x WHERE { ?x dbont:p ?y . }`,
		`SELECT ?x ?y WHERE { ?x dbont:p ?y . } ORDER BY DESC(?y) ?x`,
		`SELECT ?x WHERE { ?x dbont:p ?y . } ORDER BY ?y LIMIT 3 OFFSET 2`,
		`SELECT * WHERE { ?x dbont:p ?y . ?x dbont:q ?z . FILTER(?y < ?z) FILTER(?x != res:B) }`,
		`SELECT * WHERE { ?x dbont:p ?y . FILTER(1 < 2) }`,
		`SELECT * WHERE { ?x dbont:p ?y . FILTER(?z > 1) }`,
		`SELECT (COUNT(?z) AS ?n) WHERE { ?x dbont:p ?y . }`,
		`ASK WHERE { FILTER(2 < 1) }`,
		`SELECT ?x ?y WHERE { ?x dbont:p ?y . } ORDER BY ?z DESC(1) ?y ?x`,
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

// TestRowsetCompact pins the in-place compaction invariant the FILTER
// path relies on: the write cursor never passes the read cursor,
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

// TestGallopTo: gallopTo finds the first index at or past lo whose
// value is >= v, as a binary search from lo does, for every start and
// target — including a gallop that overshoots the list's end.
func TestGallopTo(t *testing.T) {
	lst := []store.ID{2, 3, 5, 8, 13, 21, 34, 55, 89}
	for lo := 0; lo <= len(lst); lo++ {
		for v := store.ID(0); v <= 91; v++ {
			want := lo + sort.Search(len(lst)-lo, func(i int) bool { return lst[lo+i] >= v })
			if got := gallopTo(lst, lo, v); got != want {
				t.Fatalf("gallopTo(lo=%d, v=%d) = %d, want %d", lo, v, got, want)
			}
		}
	}
}

// TestProjectDistinctMatchesSet: distinctColumn keeps exactly the
// first occurrence of every ID, in input order, whether the output
// stays under scanDistinct IDs (found by scanning) or grows past it
// (found through the set built then), and projects a column no pattern
// binds as one ID 0. Multi-column DISTINCT runs through the general
// path (TestRankSortDeterminism).
func TestProjectDistinctMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		ids int // distinct IDs in the column
		col int
	}{{5, 1}, {60, 1}, {60, -1}} {
		rows := rowset{stride: 3}
		for i := 0; i < 400; i++ {
			rows.push([]store.ID{store.ID(1 + rng.Intn(tc.ids)), store.ID(1 + rng.Intn(tc.ids)), store.ID(1 + rng.Intn(tc.ids))})
		}
		var want []store.ID
		seen := map[store.ID]bool{}
		for i := 0; i < rows.n; i++ {
			var id store.ID
			if tc.col >= 0 {
				id = rows.row(i)[tc.col]
			}
			if !seen[id] {
				seen[id] = true
				want = append(want, id)
			}
		}
		if got := distinctColumn(&rows, tc.col); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%+v: %v, want %v", tc, got, want)
		}
	}
}

// TestDeferredFilterAfterOptional: OPTIONAL is refused, and a filter
// over a variable no pattern binds — the filter OPTIONAL's deferred
// path ran — drops every row, while one over a variable the join binds
// last drops exactly the rows where it is false, preserving order.
func TestDeferredFilterAfterOptional(t *testing.T) {
	wantUnsupported(t, `SELECT ?x ?z WHERE { ?x dbont:p ?y . OPTIONAL { ?x dbont:q ?z . } FILTER(?z > 10) }`, "OPTIONAL")
	st := store.New()
	st.AddAll([]rdf.Triple{
		{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.NewInteger(1)},
		{S: rdf.Res("B"), P: rdf.Ont("p"), O: rdf.NewInteger(2)},
		{S: rdf.Res("C"), P: rdf.Ont("p"), O: rdf.NewInteger(3)},
		{S: rdf.Res("A"), P: rdf.Ont("q"), O: rdf.NewInteger(10)},
		{S: rdf.Res("C"), P: rdf.Ont("q"), O: rdf.NewInteger(30)},
	})
	never, err := ExecuteStringCtx(context.Background(), st.Snapshot(),
		`SELECT ?x WHERE { ?x dbont:p ?y . FILTER(?z > 10) }`)
	if err != nil || never.Len() != 0 {
		t.Fatalf("filter over a never-bound variable: %v, %v", never, err)
	}
	res, err := ExecuteStringCtx(context.Background(), st.Snapshot(), `SELECT ?x ?z WHERE {
		?x dbont:p ?y .
		?x dbont:q ?z .
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
