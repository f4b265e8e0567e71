package store

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/rdf"
)

func rankStore(n int) *Store {
	st := New()
	var batch []rdf.Triple
	for i := 0; i < n; i++ {
		batch = append(batch, rdf.Triple{
			S: rdf.Res(fmt.Sprintf("E%03d", i)),
			P: rdf.Ont(fmt.Sprintf("p%d", i%7)),
			O: rdf.NewInteger(int64(i % 13)),
		})
	}
	st.AddAll(batch)
	return st
}

// TestTermRanksMatchesCompareOrder: the rank permutation is exactly
// the dictionary sorted by rdf.Term.Compare — strictly increasing
// (ranks are injective) with ranks the inverse of order.
func TestTermRanksMatchesCompareOrder(t *testing.T) {
	sn := rankStore(100).Snapshot()
	ranks, order := sn.TermRanks()
	terms := sn.TermsView()
	if len(ranks) != len(terms) || len(order) != len(terms) {
		t.Fatalf("lengths: ranks=%d order=%d dict=%d", len(ranks), len(order), len(terms))
	}
	for r := 1; r < len(order); r++ {
		a, b := terms[order[r-1]-1], terms[order[r]-1]
		if a.Compare(b) >= 0 {
			t.Fatalf("order not strictly increasing at rank %d: %v >= %v", r, a, b)
		}
	}
	for r, id := range order {
		if ranks[id-1] != uint32(r) {
			t.Fatalf("ranks is not the inverse of order: ranks[%d]=%d want %d",
				id-1, ranks[id-1], r)
		}
	}
}

// TestTermRanksPerGeneration: a dictionary-growing write publishes a
// snapshot whose rank table covers the new terms, while the old
// snapshot's table is untouched.
func TestTermRanksPerGeneration(t *testing.T) {
	st := rankStore(50)
	oldSnap := st.Snapshot()
	oldRanks, _ := oldSnap.TermRanks()
	oldLen := len(oldRanks)

	st.Add(rdf.Triple{S: rdf.Res("ZZZ-new"), P: rdf.Ont("p-new"), O: rdf.NewInteger(9999)})
	newSnap := st.Snapshot()
	newRanks, newOrder := newSnap.TermRanks()
	if len(newRanks) != newSnap.TermCount() {
		t.Fatalf("new table covers %d of %d terms", len(newRanks), newSnap.TermCount())
	}
	if len(newRanks) <= oldLen {
		t.Fatalf("write added no terms to the new table: %d <= %d", len(newRanks), oldLen)
	}
	// The old snapshot keeps serving its own (shorter) table.
	againOld, _ := oldSnap.TermRanks()
	if len(againOld) != oldLen {
		t.Fatalf("old snapshot's table changed size: %d -> %d", oldLen, len(againOld))
	}
	terms := newSnap.TermsView()
	for r := 1; r < len(newOrder); r++ {
		if terms[newOrder[r-1]-1].Compare(terms[newOrder[r]-1]) >= 0 {
			t.Fatalf("new table out of order at rank %d", r)
		}
	}
}

// rankOrderOracle is the brute-force full sort the incremental merge
// must reproduce exactly.
func rankOrderOracle(sn *Snapshot) []ID {
	terms := sn.TermsView()
	ord := make([]ID, len(terms))
	for i := range ord {
		ord[i] = ID(i + 1)
	}
	sort.Slice(ord, func(a, b int) bool {
		return terms[ord[a]-1].Compare(terms[ord[b]-1]) < 0
	})
	return ord
}

func checkRanks(t *testing.T, sn *Snapshot) {
	t.Helper()
	ranks, order := sn.TermRanks()
	want := rankOrderOracle(sn)
	if len(order) != len(want) {
		t.Fatalf("order length %d, want %d", len(order), len(want))
	}
	for r := range want {
		if order[r] != want[r] {
			t.Fatalf("order[%d] = %d, full-sort oracle wants %d", r, order[r], want[r])
		}
		if ranks[order[r]-1] != uint32(r) {
			t.Fatalf("ranks not inverse of order at rank %d", r)
		}
	}
}

// TestTermRanksIncrementalMatchesFullSort: under sustained
// dictionary-growing churn with the table built every generation (the
// incremental merge path), every generation's permutation is identical
// to a from-scratch full sort.
func TestTermRanksIncrementalMatchesFullSort(t *testing.T) {
	st := rankStore(60)
	checkRanks(t, st.Snapshot()) // build the base table
	for i := 0; i < 20; i++ {
		st.AddAll([]rdf.Triple{
			{S: rdf.Res(fmt.Sprintf("churn-%02d", i)), P: rdf.Ont("pc"), O: rdf.NewInteger(int64(1000 + i))},
			{S: rdf.Res(fmt.Sprintf("Aaa-%02d", i)), P: rdf.Ont("pc"), O: rdf.NewLiteral(fmt.Sprintf("label %d", i))},
		})
		checkRanks(t, st.Snapshot())
	}
}

// TestTermRanksUnbuiltChainFallsBack: growing the dictionary many
// times without ever ranking leaves an unbuilt chain; the eventual
// first build (full sort fallback, or a detached root past the depth
// cap) is still exactly the oracle.
func TestTermRanksUnbuiltChainFallsBack(t *testing.T) {
	st := rankStore(30)
	for i := 0; i < maxRankChain+8; i++ { // deep enough to cross the cap
		st.Add(rdf.Triple{S: rdf.Res(fmt.Sprintf("deep-%02d", i)), P: rdf.Ont("pd"), O: rdf.NewInteger(int64(i))})
	}
	checkRanks(t, st.Snapshot())
	// And incremental again on top of the fresh root.
	st.Add(rdf.Triple{S: rdf.Res("after-cap"), P: rdf.Ont("pd"), O: rdf.NewInteger(-1)})
	checkRanks(t, st.Snapshot())
}

// TestTermRanksDictUnchangedSharesTable: a write that adds no new
// terms republishes the same rank box, so the permutation is built at
// most once across those generations.
func TestTermRanksDictUnchangedSharesTable(t *testing.T) {
	st := rankStore(20)
	before := st.Snapshot()
	bRanks, _ := before.TermRanks()
	// New triple out of existing terms only: E001 p0 E002's object slot
	// reuses interned terms.
	terms := before.TermsView()
	if !st.Add(rdf.Triple{S: terms[0], P: terms[1], O: terms[0]}) {
		t.Fatal("expected a new triple from recombined existing terms")
	}
	after := st.Snapshot()
	if after.Gen() == before.Gen() {
		t.Fatal("write did not publish a new generation")
	}
	aRanks, _ := after.TermRanks()
	if &aRanks[0] != &bRanks[0] {
		t.Fatal("dictionary-unchanged write rebuilt the rank table instead of sharing it")
	}
}

// internAll interns terms in order as one batch.
func internAll(st *Store, terms []rdf.Term) {
	st.Batch(0, func(b *Batch) {
		for _, t := range terms {
			b.Intern(t)
		}
	})
}

// TestBatchReplicatesIDs: interning another store's TermsView in order
// into an empty store reproduces its ID assignment exactly — the
// shard-dictionary-alignment primitive.
func TestBatchReplicatesIDs(t *testing.T) {
	src := rankStore(40)
	sn := src.Snapshot()
	replica := New()
	internAll(replica, sn.TermsView())
	rsn := replica.Snapshot()
	if rsn.TermCount() != sn.TermCount() {
		t.Fatalf("replica has %d terms, want %d", rsn.TermCount(), sn.TermCount())
	}
	for id, term := range sn.TermsView() {
		got, ok := rsn.Lookup(term)
		if !ok || got != ID(id+1) {
			t.Fatalf("replica ID for %v = %d (ok=%v), want %d", term, got, ok, id+1)
		}
	}
	gen := rsn.Gen()
	internAll(replica, sn.TermsView()) // idempotent: nothing new, no publish
	if g := replica.Snapshot().Gen(); g != gen {
		t.Fatalf("re-interning known terms published generation %d (was %d)", g, gen)
	}
}

// BenchmarkTermRanksChurnIncremental measures the per-write rank cost
// under dictionary-growing churn with the incremental suffix merge:
// each iteration adds one new-term triple and rebuilds via the merge.
func BenchmarkTermRanksChurnIncremental(b *testing.B) {
	st := rankStore(5000)
	st.Snapshot().TermRanks() // built base
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Add(rdf.Triple{S: rdf.Res(fmt.Sprintf("churn-%09d", i)), P: rdf.Ont("pb"), O: rdf.NewInteger(int64(i))})
		st.Snapshot().TermRanks()
	}
}

// BenchmarkTermRanksChurnFullRebuild is the pre-incremental baseline:
// identical churn, but each iteration's table is detached from its
// predecessor so the build falls back to the full dictionary sort.
func BenchmarkTermRanksChurnFullRebuild(b *testing.B) {
	st := rankStore(5000)
	st.Snapshot().TermRanks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Add(rdf.Triple{S: rdf.Res(fmt.Sprintf("churn-%09d", i)), P: rdf.Ont("pb"), O: rdf.NewInteger(int64(i))})
		sn := st.Snapshot()
		sn.ranks = &rankTable{} // sever the chain: force the old full rebuild
		sn.TermRanks()
	}
}

// TestTermRanksConcurrent: concurrent first calls build the table
// exactly once (every caller sees the same backing array). Run under
// -race this pins the once-guarded publication.
func TestTermRanksConcurrent(t *testing.T) {
	sn := rankStore(200).Snapshot()
	const workers = 16
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], _ = sn.TermRanks()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if &got[w][0] != &got[0][0] {
			t.Fatal("concurrent TermRanks built more than one table")
		}
	}
}
