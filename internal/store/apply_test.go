package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rdf"
)

func applyTriple(kind string, i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI(fmt.Sprintf("http://x/%s/s%d", kind, i)),
		P: rdf.NewIRI("http://x/p"),
		O: rdf.NewIRI(fmt.Sprintf("http://x/%s/o%d", kind, i)),
	}
}

func TestApplyBatchMixedOps(t *testing.T) {
	s := New()
	var base []rdf.Triple
	for i := 0; i < 10; i++ {
		base = append(base, applyTriple("base", i))
	}
	s.AddAll(base)

	added, removed := s.ApplyBatch([]BatchOp{
		{Delete: true, Triples: base[:3]},
		{Triples: []rdf.Triple{applyTriple("new", 0), applyTriple("new", 1)}},
		{Delete: true, Triples: []rdf.Triple{applyTriple("new", 1)}}, // sees earlier insert
		{Triples: []rdf.Triple{base[0]}},                             // re-insert a deleted one
	})
	if added != 3 || removed != 4 {
		t.Fatalf("ApplyBatch = (added %d, removed %d), want (3, 4)", added, removed)
	}
	if s.Snapshot().Len() != 9 {
		t.Fatalf("Len = %d, want 9", s.Snapshot().Len())
	}
	if !s.Snapshot().Has(base[0]) || s.Snapshot().Has(base[1]) || s.Snapshot().Has(base[2]) {
		t.Fatal("net effect of delete+reinsert wrong")
	}
	if !s.Snapshot().Has(applyTriple("new", 0)) || s.Snapshot().Has(applyTriple("new", 1)) {
		t.Fatal("insert-then-delete within one batch should net to absent")
	}
}

func TestApplyBatchNoOpDoesNotPublish(t *testing.T) {
	s := New()
	s.Add(applyTriple("base", 0))
	gen := s.Snapshot().Gen()
	added, removed := s.ApplyBatch([]BatchOp{
		{Triples: []rdf.Triple{applyTriple("base", 0)}},               // duplicate
		{Delete: true, Triples: []rdf.Triple{applyTriple("gone", 7)}}, // absent
	})
	if added != 0 || removed != 0 {
		t.Fatalf("no-op batch reported (added %d, removed %d)", added, removed)
	}
	if g := s.Snapshot().Gen(); g != gen {
		t.Fatalf("no-op batch published gen %d (was %d)", g, gen)
	}
}

// TestApplyBatchAtomicVisibility extends TestAddAllAtomicVisibility to
// mixed batches: a reader pinning snapshots during concurrent
// ApplyBatch calls that each atomically move a fact must always see
// exactly one of the two placements, never both or neither.
func TestApplyBatchAtomicVisibility(t *testing.T) {
	s := New()
	sub := rdf.NewIRI("http://x/lincoln")
	p := rdf.NewIRI("http://x/deathPlace")
	a := rdf.NewIRI("http://x/washington")
	b := rdf.NewIRI("http://x/springfield")
	s.Add(rdf.Triple{S: sub, P: p, O: a})

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur, next := a, b
		for !stop.Load() {
			s.ApplyBatch([]BatchOp{
				{Delete: true, Triples: []rdf.Triple{{S: sub, P: p, O: cur}}},
				{Triples: []rdf.Triple{{S: sub, P: p, O: next}}},
			})
			cur, next = next, cur
		}
	}()

	for i := 0; i < 2000; i++ {
		sn := s.Snapshot()
		hasA := sn.Has(rdf.Triple{S: sub, P: p, O: a})
		hasB := sn.Has(rdf.Triple{S: sub, P: p, O: b})
		if hasA == hasB {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("snapshot saw a half-applied batch: hasA=%v hasB=%v", hasA, hasB)
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestSetGen(t *testing.T) {
	s := New()
	s.Add(applyTriple("base", 0))
	before := s.Snapshot()

	s.SetGen(100)
	sn := s.Snapshot()
	if sn.Gen() != 100 {
		t.Fatalf("Gen after SetGen(100) = %d", sn.Gen())
	}
	if sn.Len() != before.Len() {
		t.Fatalf("SetGen changed contents: %d vs %d triples", sn.Len(), before.Len())
	}

	// Backward moves never republish.
	s.SetGen(5)
	if g := s.Snapshot().Gen(); g != 100 {
		t.Fatalf("backward SetGen republished: gen %d", g)
	}

	// The next write publishes above the restored generation.
	s.Add(applyTriple("base", 1))
	if g := s.Snapshot().Gen(); g <= 100 {
		t.Fatalf("write after SetGen published gen %d, want > 100", g)
	}
}
