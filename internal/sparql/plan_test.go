package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// The plan-cache differential and the term-rank determinism pins.
//
// PR 9 split compile into a cached shape phase and a per-snapshot bind
// phase, and replaced the ORDER-BY-less deterministic sorts with
// unstable integer sorts over the snapshot's term-rank permutation.
// Neither change may be observable: results must stay byte-identical
// with the cache enabled, disabled, shared across concurrent sessions
// or across a store write, and the default result order must remain
// exactly the term order rowLess defines.

// TestPlanCacheDifferential: cache-enabled execution ≡ cache-disabled
// execution, byte-identical, over randomized graphs and sibling-query
// workloads — including the repeat run that serves every shape from
// the cache.
func TestPlanCacheDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 8; trial++ {
		st, props := randStore(rng, 30+rng.Intn(120), 2+rng.Intn(5))
		qs := siblingQueries(rng, props)
		pc := NewPlanCache(64)
		cached := NewSnapshotSession(st.Snapshot()).WithPlanCache(pc)
		bare := NewSnapshotSession(st.Snapshot())
		for qi, q := range qs {
			want, errW := bare.ExecuteCtx(context.Background(), q)
			for pass := 0; pass < 2; pass++ { // pass 1 hits the cache
				got, errG := cached.ExecuteCtx(context.Background(), q)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("trial %d query %d pass %d: err mismatch %v vs %v",
						trial, qi, pass, errW, errG)
				}
				if errW != nil {
					continue
				}
				if g, w := resultKey(got), resultKey(want); g != w {
					t.Fatalf("trial %d query %d pass %d diverged:\ncached: %s\nbare:   %s\nquery: %s",
						trial, qi, pass, g, w, q.String())
				}
			}
		}
		ps := cached.PlanStats()
		if ps.Hits == 0 || ps.Misses == 0 {
			t.Fatalf("trial %d: expected both hits and misses, got %+v", trial, ps)
		}
		if bs := bare.PlanStats(); bs.Hits != 0 || bs.Misses != 0 {
			t.Fatalf("trial %d: disabled cache fabricated counters: %+v", trial, bs)
		}
	}
}

// TestPlanCacheConcurrentSharedCache: many sessions over one shared
// cache, each executing the workload from its own goroutine. Under
// -race this pins the cross-session cache locking; the results must
// match the cache-disabled baseline exactly.
func TestPlanCacheConcurrentSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	st, props := randStore(rng, 150, 4)
	qs := siblingQueries(rng, props)
	want := make([]string, len(qs))
	bare := NewSnapshotSession(st.Snapshot())
	for i, q := range qs {
		r, err := bare.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultKey(r)
	}
	pc := NewPlanCache(DefaultPlanCacheSize)
	const sessions = 6
	var wg sync.WaitGroup
	errCh := make(chan error, sessions*len(qs))
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := NewSnapshotSession(st.Snapshot()).WithPlanCache(pc)
			for i, q := range qs {
				r, err := sess.ExecuteCtx(context.Background(), q)
				if err != nil {
					errCh <- err
					return
				}
				if got := resultKey(r); got != want[i] {
					errCh <- fmt.Errorf("session %d query %d diverged:\n%s\nvs\n%s", s, i, got, want[i])
				}
			}
		}(s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	hits, misses, _ := pc.Stats()
	if misses == 0 || hits == 0 {
		t.Fatalf("shared cache saw hits=%d misses=%d; want both > 0", hits, misses)
	}
}

// TestPlanCacheGenerationInvalidation: what a generation change
// invalidates is the bind, not the shape. A query whose constant is not
// yet in the dictionary compiles to a cached shape and answers nothing.
// After a write adds the term, a new session binds the same cached shape
// against its own snapshot and finds the term's fresh ID, while the
// session pinned before the write keeps answering from its snapshot.
func TestPlanCacheGenerationInvalidation(t *testing.T) {
	st := store.New()
	st.AddAll([]rdf.Triple{{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.NewInteger(1)}})
	pc := NewPlanCache(64)
	q := mustParse(`SELECT ?x WHERE { res:B dbont:p ?x . }`)

	s1 := NewSnapshotSession(st.Snapshot()).WithPlanCache(pc)
	for pass := 0; pass < 2; pass++ {
		r, err := s1.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 0 {
			t.Fatalf("pass %d: unknown subject answered %d rows", pass, r.Len())
		}
	}
	if ps := s1.PlanStats(); ps.Misses != 1 || ps.Hits != 1 {
		t.Fatalf("warmup stats = %+v, want 1 miss + 1 hit", ps)
	}

	st.AddAll([]rdf.Triple{{S: rdf.Res("B"), P: rdf.Ont("p"), O: rdf.NewInteger(2)}})
	s2 := NewSnapshotSession(st.Snapshot()).WithPlanCache(pc)
	r, err := s2.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("post-write result has %d rows, want the new triple", r.Len())
	}
	if ps := s2.PlanStats(); ps.Hits != 1 || ps.Misses != 0 {
		t.Fatalf("post-write compile stats = %+v, want 1 shape hit", ps)
	}
	old, err := s1.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != 0 {
		t.Fatalf("pre-write session saw the write: %d rows", old.Len())
	}
	if _, _, evictions := pc.Stats(); evictions != 0 {
		t.Fatalf("a generation change evicted %d shapes", evictions)
	}
}

// TestPlanShapeSurvivesWrite: a cached shape holds no dictionary ID
// and no result, so it stays valid across a store write. After a write
// that changes the answer, a new session on the same cache must compile
// from a shape hit and still see the new triple (cached ≡ fresh across
// a write).
func TestPlanShapeSurvivesWrite(t *testing.T) {
	st := store.New()
	st.AddAll([]rdf.Triple{{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.NewInteger(1)}})
	pc := NewPlanCache(64)
	q := mustParse(`SELECT ?x WHERE { res:A dbont:p ?x . }`)

	s1 := NewSnapshotSession(st.Snapshot()).WithPlanCache(pc)
	r1, err := s1.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 1 {
		t.Fatalf("pre-write result has %d rows, want 1", r1.Len())
	}
	if ps := s1.PlanStats(); ps.Misses != 1 || ps.Hits != 0 {
		t.Fatalf("first compile stats = %+v, want 1 miss", ps)
	}

	st.ApplyBatch([]store.BatchOp{{Triples: []rdf.Triple{
		{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.NewInteger(2)}}}})
	s2 := NewSnapshotSession(st.Snapshot()).WithPlanCache(pc)
	r2, err := s2.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSnapshotSession(st.Snapshot()).ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 || resultKey(r2) != resultKey(fresh) {
		t.Fatalf("post-write cached result %s, fresh %s; want the new triple in both",
			resultKey(r2), resultKey(fresh))
	}
	if ps := s2.PlanStats(); ps.Hits != 1 || ps.Misses != 0 {
		t.Fatalf("post-write compile stats = %+v, want 1 shape hit", ps)
	}
	if _, _, evictions := pc.Stats(); evictions != 0 {
		t.Fatalf("a store write evicted %d shapes", evictions)
	}
}

// TestPlanCacheCrossStore: two stores share one plan cache and can sit
// at equal generations with entirely different dictionaries. The
// second store compiles from the first one's shape and still answers
// from its own dictionary — a shape carries no ID to bleed across.
func TestPlanCacheCrossStore(t *testing.T) {
	pc := NewPlanCache(64)
	q := mustParse(`SELECT ?x WHERE { ?x rdf:type dbont:Person . }`)

	stA := store.New()
	// Different insertion orders give the two dictionaries different
	// ID assignments for the same query shape.
	stA.AddAll([]rdf.Triple{{S: rdf.Res("Alice"), P: rdf.Type(), O: rdf.Ont("Person")}})
	stB := store.New()
	stB.AddAll([]rdf.Triple{{S: rdf.Res("Filler"), P: rdf.Ont("p"), O: rdf.NewInteger(9)}})
	stB.AddAll([]rdf.Triple{{S: rdf.Res("Bob"), P: rdf.Type(), O: rdf.Ont("Person")}})

	for _, st := range []*store.Store{stA, stB} {
		sess := NewSnapshotSession(st.Snapshot()).WithPlanCache(pc)
		got, err := sess.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSnapshotSession(st.Snapshot()).ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(got) != resultKey(want) {
			t.Fatalf("cross-store bleed: %s, want %s", resultKey(got), resultKey(want))
		}
	}
	if hits, misses, _ := pc.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want the second store to hit", hits, misses)
	}
}

// TestShapeKeySharing: sibling candidates (same structure, different
// constant terms) share one shape key — the property the fan-out's
// hit rate rests on — while structurally different queries do not.
func TestShapeKeySharing(t *testing.T) {
	shapeKey := func(q *Query) string { return string(appendShapeKey(nil, q)) }
	a := mustParse(`SELECT DISTINCT ?x WHERE { ?p rdf:type dbont:Person . ?p dbont:author ?x . }`)
	b := mustParse(`SELECT DISTINCT ?x WHERE { ?p rdf:type dbont:City . ?p dbont:starring ?x . }`)
	if shapeKey(a) != shapeKey(b) {
		t.Fatalf("sibling candidates got distinct keys:\n%q\n%q", shapeKey(a), shapeKey(b))
	}
	c := mustParse(`SELECT DISTINCT ?x WHERE { ?x dbont:author ?p . ?p rdf:type dbont:Person . }`)
	if shapeKey(a) == shapeKey(c) {
		t.Fatalf("different orientation shares a key: %q", shapeKey(a))
	}
	d := mustParse(`SELECT ?x WHERE { ?p rdf:type dbont:Person . ?p dbont:author ?x . } LIMIT 5`)
	e := mustParse(`SELECT ?x WHERE { ?p rdf:type dbont:Person . ?p dbont:author ?x . } LIMIT 9`)
	if shapeKey(d) != shapeKey(e) {
		t.Fatal("LIMIT leaked into the shape key")
	}
	asc := mustParse(`SELECT ?x WHERE { ?p dbont:author ?x . } ORDER BY ASC(?x)`)
	desc := mustParse(`SELECT ?x WHERE { ?p dbont:author ?x . } ORDER BY DESC(?x)`)
	if shapeKey(asc) == shapeKey(desc) {
		t.Fatal("ASC and DESC keys share a shape key")
	}
	f := mustParse(`SELECT ?x WHERE { ?p dbont:author ?x . FILTER(?x > 3) }`)
	g := mustParse(`SELECT ?x WHERE { ?p dbont:author ?x . FILTER(?x > 4) }`)
	if shapeKey(f) == shapeKey(g) {
		t.Fatal("filter constants must stay concrete in the key")
	}
}

// TestRankRowLessMatchesRowLess: on every pair of rows over a sample of
// the dictionary the integer comparator the production sorts use agrees
// with rowLess, the term-order definition it replaced. The never-bound
// column (-1) is skipped by both.
func TestRankRowLessMatchesRowLess(t *testing.T) {
	st, _ := randStore(rand.New(rand.NewSource(5)), 40, 3)
	sess := NewSnapshotSession(st.Snapshot())
	ex := compile(context.Background(), sess, mustParse(`SELECT ?s ?o WHERE { ?s ?p ?o . }`))
	ranks, _ := sess.snap.TermRanks()
	var rows [][]store.ID
	for a := store.ID(1); a <= 12; a++ {
		for b := store.ID(1); b <= 12; b++ {
			rows = append(rows, []store.ID{a, 7, b})
		}
	}
	cols := []int{0, -1, 2}
	for _, a := range rows {
		for _, b := range rows {
			if got, want := rankRowLess(ranks, a, b, cols), ex.rowLess(a, b, cols); got != want {
				t.Fatalf("rankRowLess(%v, %v) = %v, rowLess says %v", a, b, got, want)
			}
		}
	}
}

// termRowLess is the test-side oracle for the deterministic default
// order: compare projected columns by their materialized terms —
// rowLess re-derived independently over the Result surface. A column
// no pattern binds is unbound in every row and compares equal.
func termRowLess(r *Result, a, b int) bool {
	for col := range r.Vars {
		ta, _ := r.TermAt(a, col)
		tb, _ := r.TermAt(b, col)
		if c := ta.Compare(tb); c != 0 {
			return c < 0
		}
	}
	return false
}

// assertTermSorted fails unless the result rows are non-decreasing
// under the term-order oracle.
func assertTermSorted(t *testing.T, r *Result, label string) {
	t.Helper()
	for i := 1; i < r.Len(); i++ {
		if termRowLess(r, i, i-1) {
			t.Fatalf("%s: rows %d/%d out of term order\nresult: %s",
				label, i-1, i, resultKey(r))
		}
	}
}

// TestRankSortDeterminism: the unstable integer sorts over the
// term-rank permutation must order results exactly as the stable
// term-materializing sort did — on adversarial inputs full of ties
// (duplicate projected tuples) and a projected variable no pattern
// binds, across the single-column DISTINCT, multi-column DISTINCT and
// general paths.
func TestRankSortDeterminism(t *testing.T) {
	st := store.New()
	var batch []rdf.Triple
	p0, p1 := rdf.Ont("p0"), rdf.Ont("p1")
	// 60 subjects funneled onto 5 shared objects: every projected value
	// ties many times over. Every third subject gets a second property
	// with 4 values.
	for i := 0; i < 60; i++ {
		s := rdf.Res(fmt.Sprintf("S%02d", i))
		batch = append(batch, rdf.Triple{S: s, P: p0, O: rdf.Res(fmt.Sprintf("V%d", i%5))})
		if i%3 == 0 {
			batch = append(batch, rdf.Triple{S: s, P: p1, O: rdf.NewInteger(int64(i % 4))})
		}
	}
	st.AddAll(batch)

	cases := []struct {
		label string
		q     *Query
	}{
		{"general multi-col", mustParse(
			`SELECT ?v ?c WHERE { ?s dbont:p0 ?v . ?s dbont:p1 ?c }`)},
		{"general multi-col with never-bound", mustParse(
			`SELECT ?u ?v WHERE { ?s dbont:p0 ?v . }`)},
		{"multi-col DISTINCT", mustParse(
			`SELECT DISTINCT ?c ?v WHERE { ?s dbont:p0 ?v . ?s dbont:p1 ?c }`)},
		{"multi-col DISTINCT with never-bound", mustParse(
			`SELECT DISTINCT ?v ?u WHERE { ?s dbont:p0 ?v . }`)},
		{"single-col DISTINCT", mustParse(
			`SELECT DISTINCT ?v WHERE { ?s dbont:p0 ?v . }`)},
		{"general all-tie projection", mustParse(
			`SELECT ?v WHERE { ?s dbont:p0 ?v . }`)},
	}
	for _, tc := range cases {
		sess := NewSnapshotSession(st.Snapshot())
		r, err := sess.ExecuteCtx(context.Background(), tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if r.Len() == 0 {
			t.Fatalf("%s: empty result", tc.label)
		}
		assertTermSorted(t, r, tc.label)
		if sess.PlanStats().RankSorts == 0 {
			t.Fatalf("%s: rank sort never ran", tc.label)
		}
		// Byte-identical on repeat and through the cached path: ties are
		// interchangeable, so the unstable sort may not be observable.
		cachedSess := NewSnapshotSession(st.Snapshot()).WithPlanCache(NewPlanCache(8))
		for pass := 0; pass < 2; pass++ {
			r2, err := cachedSess.ExecuteCtx(context.Background(), tc.q)
			if err != nil {
				t.Fatalf("%s pass %d: %v", tc.label, pass, err)
			}
			if resultKey(r2) != resultKey(r) {
				t.Fatalf("%s pass %d: cached run diverged:\n%s\nvs\n%s",
					tc.label, pass, resultKey(r2), resultKey(r))
			}
		}
	}
}
