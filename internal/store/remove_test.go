package store

import (
	"sync"
	"testing"

	"repro/internal/rdf"
)

// Tests for deletion, which goes through ApplyBatch's Delete op alone:
// copy-on-write semantics, generation-bump observability (the answer
// cache keys on Gen) and add/remove churn under concurrent readers. Run
// with -race (CI does).

// remove deletes ts as one ApplyBatch and returns how many were present.
func remove(s *Store, ts ...rdf.Triple) int {
	_, n := s.ApplyBatch([]BatchOp{{Delete: true, Triples: ts}})
	return n
}

func TestRemoveSingleTriple(t *testing.T) {
	s := New()
	tr := churnTriple(1)
	if remove(s, tr) == 1 {
		t.Fatal("Remove on empty store reported true")
	}
	s.add(tr)
	s.add(churnTriple(2))
	if remove(s, tr) != 1 {
		t.Fatal("Remove of present triple reported false")
	}
	if s.Snapshot().Has(tr) {
		t.Fatal("triple still present after Remove")
	}
	if !s.Snapshot().Has(churnTriple(2)) {
		t.Fatal("Remove deleted an unrelated triple")
	}
	if s.Snapshot().Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Snapshot().Len())
	}
	if remove(s, tr) == 1 {
		t.Fatal("second Remove of the same triple reported true")
	}
	// Non-ground and unknown-term patterns remove nothing.
	if remove(s, rdf.Triple{S: rdf.NewVar("x"), P: tr.P, O: tr.O}) == 1 {
		t.Fatal("Remove with a variable slot reported true")
	}
	if remove(s, churnTriple(999)) == 1 {
		t.Fatal("Remove of unknown terms reported true")
	}
}

// TestRemoveGenerationBump: a successful Remove publishes a new
// snapshot with a higher generation; a no-op Remove publishes nothing.
// The answer cache relies on exactly this to invalidate on KB change.
func TestRemoveGenerationBump(t *testing.T) {
	s := New()
	s.add(churnTriple(1))
	gen := s.Snapshot().Gen()

	if remove(s, churnTriple(42)) == 1 {
		t.Fatal("no-op remove reported true")
	}
	if got := s.Snapshot().Gen(); got != gen {
		t.Fatalf("no-op Remove bumped generation: %d -> %d", gen, got)
	}

	if remove(s, churnTriple(1)) != 1 {
		t.Fatal("remove failed")
	}
	if got := s.Snapshot().Gen(); got <= gen {
		t.Fatalf("Remove did not bump generation: %d -> %d", gen, got)
	}
}

// TestRemovePinnedSnapshotUnaffected: a pinned snapshot keeps seeing a
// triple removed after the pin.
func TestRemovePinnedSnapshotUnaffected(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.add(churnTriple(i))
	}
	pinned := s.Snapshot()
	for i := 0; i < 100; i += 2 {
		remove(s, churnTriple(i))
	}
	for i := 0; i < 100; i++ {
		if !pinned.Has(churnTriple(i)) {
			t.Fatalf("pinned snapshot lost triple %d", i)
		}
	}
	now := s.Snapshot()
	if now.Len() != 50 {
		t.Fatalf("Len after removals = %d, want 50", now.Len())
	}
}

// TestRemoveChurnUnderReaders hammers single-triple Add/Remove from a
// writer while readers scan pinned snapshots; every pinned view must be
// internally consistent (all three indexes agree) and the final state
// must match the churn arithmetic. Run with -race.
func TestRemoveChurnUnderReaders(t *testing.T) {
	s := New()
	const keep = 64
	for i := 0; i < keep; i++ {
		s.add(rdf.Triple{S: rdf.Res("Stable"), P: rdf.Ont("stable"), O: rdf.NewInteger(int64(i))})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
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
				// The stable core is always whole in any snapshot.
				if got := sn.EstimateCardinality(rdf.Triple{S: rdf.Res("Stable")}); got != keep {
					t.Errorf("stable core = %d, want %d", got, keep)
					return
				}
				// Index agreement: every SPO match of the churn predicate
				// is also visible through POS (same count).
				spo := 0
				sn.ForEachMatch(rdf.Triple{P: rdf.Ont("churn")}, func(tr rdf.Triple) bool {
					if !sn.Has(tr) {
						t.Errorf("matched triple not Has(): %v", tr)
						return false
					}
					spo++
					return true
				})
				if pos := sn.EstimateCardinality(rdf.Triple{P: rdf.Ont("churn")}); pos != spo {
					t.Errorf("index disagreement: SPO scan %d vs POS count %d", spo, pos)
					return
				}
			}
		}()
	}

	const rounds = 400
	for i := 0; i < rounds; i++ {
		tr := churnTriple(i % 17)
		if i%2 == 0 {
			s.add(tr)
		} else {
			remove(s, tr)
		}
	}
	close(stop)
	wg.Wait()

	// rounds is even, so every even i added churnTriple(i%17) and every
	// odd i removed churnTriple(i%17); replay sequentially for the
	// expected survivor set.
	want := map[int]bool{}
	for i := 0; i < rounds; i++ {
		want[i%17] = i%2 == 0
	}
	for k, present := range want {
		if got := s.Snapshot().Has(churnTriple(k)); got != present {
			t.Errorf("churnTriple(%d) present = %v, want %v", k, got, present)
		}
	}
}
