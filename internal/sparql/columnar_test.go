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

// This file pins the columnar result surface: reading a Result through
// Rows/VarIndex/TermAt/Column must agree exactly with the lazily
// materialised Solutions() view on randomized queries, and the executor
// must stay consistent (whole write batches or none) while AddAll bulk
// loads run concurrently. Run with -race (CI does).

// checkColumnarAgreesWithSolutions cross-checks every accessor of r
// against the map view.
func checkColumnarAgreesWithSolutions(t *testing.T, label string, r *Result) {
	t.Helper()
	sols := r.Solutions()
	if r.Len() != len(sols) {
		t.Fatalf("%s: Len = %d, Solutions has %d rows", label, r.Len(), len(sols))
	}
	for row := 0; row < r.Len(); row++ {
		for col, v := range r.Vars {
			wantTerm, wantOK := sols[row][v]
			gotTerm, gotOK := r.TermAt(row, col)
			if gotOK != wantOK || gotTerm != wantTerm {
				t.Fatalf("%s: TermAt(%d,%d) = (%v,%v), Solutions has (%v,%v)",
					label, row, col, gotTerm, gotOK, wantTerm, wantOK)
			}
			if r.Rows != nil && (r.Rows[row*len(r.Vars)+col] != 0) != wantOK {
				t.Fatalf("%s: Rows at (%d,%d) = %d but bound=%v", label, row, col, r.Rows[row*len(r.Vars)+col], wantOK)
			}
		}
	}
	for _, v := range r.Vars {
		var want []rdf.Term
		for _, s := range sols {
			if t, ok := s[v]; ok {
				want = append(want, t)
			}
		}
		got := r.Column(v)
		if len(got) != len(want) {
			t.Fatalf("%s: Column(%q) has %d terms, want %d", label, v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: Column(%q)[%d] = %v, want %v", label, v, i, got[i], want[i])
			}
		}
	}
	if r.VarIndex("no-such-var") != -1 || r.Column("no-such-var") != nil {
		t.Fatalf("%s: VarIndex or Column of an unknown var answered", label)
	}
	if _, ok := r.TermAt(0, -1); ok {
		t.Fatalf("%s: TermAt with col -1 reported bound", label)
	}
	if _, ok := r.TermAt(r.Len(), 0); ok {
		t.Fatalf("%s: TermAt past the last row reported bound", label)
	}
}

// TestColumnarMatchesSolutions runs randomized queries (random graphs,
// BGP shapes, DISTINCT/ORDER BY/LIMIT modifiers) through both engines
// and pins columnar ≡ Solutions ≡ term-space reference on each.
func TestColumnarMatchesSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	subjects := []rdf.Term{rdf.Res("A"), rdf.Res("B"), rdf.Res("C"), rdf.Res("D")}
	preds := []rdf.Term{rdf.Ont("p"), rdf.Ont("q"), rdf.Ont("r")}
	objects := []rdf.Term{rdf.Res("A"), rdf.Res("B"), rdf.NewInteger(1), rdf.NewInteger(2)}
	vars := []rdf.Term{rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z")}

	for trial := 0; trial < 80; trial++ {
		st := store.New()
		n := 3 + rng.Intn(18)
		for i := 0; i < n; i++ {
			st.AddAll([]rdf.Triple{{
				S: subjects[rng.Intn(len(subjects))],
				P: preds[rng.Intn(len(preds))],
				O: objects[rng.Intn(len(objects))],
			}})
		}
		pick := func(pool []rdf.Term) rdf.Term {
			if rng.Float64() < 0.5 {
				return vars[rng.Intn(len(vars))]
			}
			return pool[rng.Intn(len(pool))]
		}
		np := 1 + rng.Intn(3)
		patterns := make([]rdf.Triple, np)
		for i := range patterns {
			patterns[i] = rdf.Triple{S: pick(subjects), P: pick(preds), O: pick(objects)}
		}
		q := &Query{Form: FormSelect, Star: true, Patterns: patterns, Limit: -1}
		if rng.Float64() < 0.4 {
			q.Distinct = true
		}
		if rng.Float64() < 0.4 {
			q.OrderBy = []OrderKey{{Expr: &VarExpr{Name: "x"}, Desc: rng.Float64() < 0.5}}
		}
		if rng.Float64() < 0.3 {
			q.Limit = rng.Intn(6)
		}

		label := fmt.Sprintf("trial %d (%v)", trial, patterns)
		got, err := ExecuteCtx(context.Background(), st.Snapshot(), q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkColumnarAgreesWithSolutions(t, label, got)

		// The term-space oracle must produce the identical solution
		// sequence; its materialised-only Result must satisfy the same
		// accessor contract.
		want, err := ExecuteTermSpace(st, q)
		if err != nil {
			t.Fatalf("%s: term space: %v", label, err)
		}
		checkColumnarAgreesWithSolutions(t, label+" termspace", want)
		gotC := canonical(got.Solutions(), q.Vars())
		wantC := canonical(want.Solutions(), q.Vars())
		if len(gotC) != len(wantC) {
			t.Fatalf("%s: %d rows vs term space %d", label, len(gotC), len(wantC))
		}
		for i := range gotC {
			if gotC[i] != wantC[i] {
				t.Fatalf("%s: row %d: %q vs %q", label, i, gotC[i], wantC[i])
			}
		}
	}
}

// TestCountResultColumnarAccessors pins the materialised-only COUNT
// result shape the answer package's aggregation retry reads: one row,
// first projected var bound to the count.
func TestCountResultColumnarAccessors(t *testing.T) {
	st := store.New()
	for i := 0; i < 7; i++ {
		st.AddAll([]rdf.Triple{{S: rdf.Res(fmt.Sprintf("E%d", i)), P: rdf.Ont("p"), O: rdf.Res("X")}})
	}
	r, err := ExecuteStringCtx(context.Background(), st.Snapshot(), `SELECT (COUNT(DISTINCT ?s) AS ?c) WHERE { ?s dbont:p res:X }`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || len(r.Vars) != 1 {
		t.Fatalf("COUNT result shape: Len=%d Vars=%v", r.Len(), r.Vars)
	}
	term, ok := r.TermAt(0, 0)
	if !ok {
		t.Fatal("COUNT result first var unbound")
	}
	if f, okf := term.Float(); !okf || f != 7 {
		t.Fatalf("COUNT = %v, want 7", term)
	}
	checkColumnarAgreesWithSolutions(t, "count", r)
}

// TestBGPJoinUnderConcurrentBulkLoad runs long 3-pattern joins while a
// writer AddAlls complete person→city chains in bulk batches. Each
// batch adds chainsPerBatch complete chains atomically, so every query
// must see the base count plus a whole multiple of chainsPerBatch —
// a remainder is a torn batch leaking into a pinned snapshot — and the
// executor must never race with the loader (-race).
func TestBGPJoinUnderConcurrentBulkLoad(t *testing.T) {
	const (
		baseChains     = 40
		batches        = 60
		chainsPerBatch = 7
	)
	st := store.New()
	chain := func(i int) []rdf.Triple {
		person := rdf.Res(fmt.Sprintf("P%d", i))
		city := rdf.Res(fmt.Sprintf("C%d", i))
		return []rdf.Triple{
			{S: person, P: rdf.Type(), O: rdf.Ont("Person")},
			{S: person, P: rdf.Ont("birthPlace"), O: city},
			{S: city, P: rdf.Ont("populationTotal"), O: rdf.NewInteger(int64(1000 + i))},
		}
	}
	var base []rdf.Triple
	for i := 0; i < baseChains; i++ {
		base = append(base, chain(i)...)
	}
	st.AddAll(base)

	q := mustParse(`SELECT ?p ?c ?n WHERE {
		?p rdf:type dbont:Person .
		?p dbont:birthPlace ?c .
		?c dbont:populationTotal ?n . }`)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := ExecuteCtx(context.Background(), st.Snapshot(), q)
				if err != nil {
					t.Errorf("join under load: %v", err)
					return
				}
				if extra := res.Len() - baseChains; extra < 0 || extra%chainsPerBatch != 0 {
					t.Errorf("join saw %d chains: not base %d plus whole batches of %d",
						res.Len(), baseChains, chainsPerBatch)
					return
				}
				// Every row must be fully bound and internally consistent.
				for row := 0; row < res.Len(); row++ {
					for col := range res.Vars {
						if _, ok := res.TermAt(row, col); !ok {
							t.Errorf("row %d col %d unbound in join result", row, col)
							return
						}
					}
				}
			}
		}()
	}

	next := baseChains
	for b := 0; b < batches; b++ {
		var batch []rdf.Triple
		for i := 0; i < chainsPerBatch; i++ {
			batch = append(batch, chain(next)...)
			next++
		}
		st.AddAll(batch)
	}
	close(stop)
	wg.Wait()

	res, err := ExecuteCtx(context.Background(), st.Snapshot(), q)
	if err != nil {
		t.Fatal(err)
	}
	if want := baseChains + batches*chainsPerBatch; res.Len() != want {
		t.Fatalf("final join = %d chains, want %d", res.Len(), want)
	}
}
