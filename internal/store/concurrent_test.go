package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// Tests for the wait-free snapshot read model: pinned snapshots are
// immutable, AddAll batches become visible atomically, and add/remove
// churn reaches a steady state. Run with -race (CI does).

func churnTriple(i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.Res(fmt.Sprintf("Churn%d", i)),
		P: rdf.Ont("churn"),
		O: rdf.NewInteger(int64(i)),
	}
}

// TestPinnedSnapshotImmutable pins a snapshot and checks that later
// writes neither change it nor invalidate it, while fresh snapshots see
// the writes.
func TestPinnedSnapshotImmutable(t *testing.T) {
	s := pamukGraph()
	pinned := s.Snapshot()
	wantLen := pinned.Len()
	wantAll := pinned.Match(rdf.Triple{})

	for i := 0; i < 500; i++ {
		s.Add(churnTriple(i))
	}
	remove(s, rdf.Triple{S: rdf.Res("Snow"), P: rdf.Ont("author"), O: rdf.Res("Orhan_Pamuk")})

	if pinned.Len() != wantLen {
		t.Fatalf("pinned Len changed: %d -> %d", wantLen, pinned.Len())
	}
	if pinned.Has(churnTriple(0)) {
		t.Fatal("pinned snapshot sees a post-pin write")
	}
	if !pinned.Has(rdf.Triple{S: rdf.Res("Snow"), P: rdf.Ont("author"), O: rdf.Res("Orhan_Pamuk")}) {
		t.Fatal("pinned snapshot lost a post-pin removal victim")
	}
	gotAll := pinned.Match(rdf.Triple{})
	if len(gotAll) != len(wantAll) {
		t.Fatalf("pinned Match(*) changed: %d -> %d rows", len(wantAll), len(gotAll))
	}
	for i := range gotAll {
		if gotAll[i] != wantAll[i] {
			t.Fatalf("pinned Match(*) row %d changed: %v -> %v", i, wantAll[i], gotAll[i])
		}
	}

	now := s.Snapshot()
	if now.Len() != wantLen+500-1 {
		t.Fatalf("fresh snapshot Len = %d, want %d", now.Len(), wantLen+500-1)
	}
	if !now.Has(churnTriple(0)) || now.Has(rdf.Triple{S: rdf.Res("Snow"), P: rdf.Ont("author"), O: rdf.Res("Orhan_Pamuk")}) {
		t.Fatal("fresh snapshot does not reflect the writes")
	}
}

// TestAddAllAtomicVisibility runs readers concurrently with AddAll bulk
// loads and asserts every pinned snapshot sees whole batches only: each
// batch writes batchSize triples under one subject, so any snapshot
// must count 0 or batchSize triples for that subject — a partial count
// is a torn batch.
func TestAddAllAtomicVisibility(t *testing.T) {
	const (
		batches   = 120
		batchSize = 25
	)
	s := New()
	// Pre-intern the subjects so readers can probe by term immediately.
	probe := make([]rdf.Triple, batches)
	for b := range probe {
		probe[b] = rdf.Triple{S: rdf.Res(fmt.Sprintf("Batch%d", b))}
	}

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
				sn := s.Snapshot()
				for b := 0; b < batches; b++ {
					if n := sn.EstimateCardinality(probe[b]); n != 0 && n != batchSize {
						t.Errorf("snapshot gen %d: batch %d half-applied: %d of %d triples",
							sn.Gen(), b, n, batchSize)
						return
					}
				}
			}
		}()
	}

	for b := 0; b < batches; b++ {
		batch := make([]rdf.Triple, batchSize)
		for i := range batch {
			batch[i] = rdf.Triple{
				S: rdf.Res(fmt.Sprintf("Batch%d", b)),
				P: rdf.Ont(fmt.Sprintf("p%d", i)),
				O: rdf.NewInteger(int64(i)),
			}
		}
		if n := s.AddAll(batch); n != batchSize {
			t.Fatalf("AddAll batch %d added %d, want %d", b, n, batchSize)
		}
	}
	close(stop)
	wg.Wait()

	if s.Snapshot().Len() != batches*batchSize {
		t.Fatalf("Len = %d, want %d", s.Snapshot().Len(), batches*batchSize)
	}
}

// TestRemoveAll checks removal semantics: counts, index pruning, dict
// retention, and idempotence.
func TestRemoveAll(t *testing.T) {
	s := New()
	batch := make([]rdf.Triple, 40)
	for i := range batch {
		batch[i] = churnTriple(i)
	}
	s.AddAll(batch)
	keep := rdf.Triple{S: rdf.Res("K"), P: rdf.Ont("p"), O: rdf.Res("V")}
	s.Add(keep)

	if n := remove(s, batch...); n != len(batch) {
		t.Fatalf("RemoveAll = %d, want %d", n, len(batch))
	}
	if s.Snapshot().Len() != 1 {
		t.Fatalf("Len after removal = %d, want 1", s.Snapshot().Len())
	}
	if s.Snapshot().Has(batch[0]) {
		t.Fatal("removed triple still present")
	}
	if !s.Snapshot().Has(keep) {
		t.Fatal("unrelated triple removed")
	}
	if got := s.Snapshot().Match(rdf.Triple{P: rdf.Ont("churn")}); len(got) != 0 {
		t.Fatalf("Match on removed predicate = %v", got)
	}
	if got := s.Snapshot().EstimateCardinality(rdf.Triple{O: rdf.NewInteger(3)}); got != 0 {
		t.Fatalf("OSP index not pruned: count = %d", got)
	}
	// The dictionary keeps the terms (IDs are never reused).
	if _, ok := s.Snapshot().Lookup(rdf.Res("Churn0")); !ok {
		t.Fatal("dictionary entry dropped by RemoveAll")
	}
	if n := remove(s, batch...); n != 0 {
		t.Fatalf("second RemoveAll = %d, want 0", n)
	}
	if n := remove(s, rdf.Triple{S: rdf.Res("Nope"), P: rdf.Ont("p"), O: rdf.Res("V")}); n != 0 {
		t.Fatalf("RemoveAll of unknown terms = %d, want 0", n)
	}
	// Re-adding after removal works and reuses the dictionary.
	before := s.Snapshot().TermCount()
	if n := s.AddAll(batch); n != len(batch) {
		t.Fatalf("re-AddAll = %d, want %d", n, len(batch))
	}
	if s.Snapshot().TermCount() != before {
		t.Fatalf("re-adding interned new terms: %d -> %d", before, s.Snapshot().TermCount())
	}
}

// TestAddRemoveChurnUnderReaders cycles AddAll/RemoveAll of the same
// batch while readers scan, pinning the steady state: every snapshot
// sees the churn predicate at 0 or full batch size, and the store ends
// where it started.
func TestAddRemoveChurnUnderReaders(t *testing.T) {
	s := pamukGraph()
	base := s.Snapshot().Len()
	batch := make([]rdf.Triple, 64)
	for i := range batch {
		batch[i] = churnTriple(i)
	}
	churnPat := rdf.Triple{P: rdf.Ont("churn")}

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
				sn := s.Snapshot()
				if n := sn.EstimateCardinality(churnPat); n != 0 && n != len(batch) {
					t.Errorf("snapshot gen %d: churn batch half-visible: %d triples", sn.Gen(), n)
					return
				}
				got := 0
				sn.ForEachMatchIDs([3]ID{}, func(_, _, _ ID) bool { got++; return true })
				if got != sn.Len() {
					t.Errorf("snapshot gen %d: full scan visited %d, Len = %d", sn.Gen(), got, sn.Len())
					return
				}
			}
		}()
	}

	for cycle := 0; cycle < 150; cycle++ {
		if n := s.AddAll(batch); n != len(batch) {
			t.Fatalf("cycle %d: AddAll = %d", cycle, n)
		}
		if n := remove(s, batch...); n != len(batch) {
			t.Fatalf("cycle %d: RemoveAll = %d", cycle, n)
		}
	}
	close(stop)
	wg.Wait()

	if s.Snapshot().Len() != base {
		t.Fatalf("churn did not return to steady state: Len = %d, want %d", s.Snapshot().Len(), base)
	}
}
