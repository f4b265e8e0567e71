package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rdf"
)

func idTriple(i int) rdf.Triple {
	return rdf.Triple{
		S: rdf.Res(fmt.Sprintf("S%d", i%50)),
		P: rdf.Ont(fmt.Sprintf("p%d", i%7)),
		O: rdf.NewInteger(int64(i % 90)),
	}
}

// TestForEachMatchIDsAgreesWithTerms checks that every wildcard
// combination of the ID-space scan yields exactly the term-space
// matches, in the same order.
func TestForEachMatchIDsAgreesWithTerms(t *testing.T) {
	s := New()
	for i := 0; i < 400; i++ {
		s.add(idTriple(i))
	}
	sn := s.Snapshot()
	terms := sn.TermsView()
	toTerm := func(a, b, c ID) rdf.Triple {
		return rdf.Triple{S: terms[a-1], P: terms[b-1], O: terms[c-1]}
	}

	sub, _ := sn.Lookup(rdf.Res("S3"))
	pred, _ := sn.Lookup(rdf.Ont("p2"))
	obj, _ := sn.Lookup(rdf.NewInteger(45))
	cases := []struct {
		name string
		tp   rdf.Triple
		ip   [3]ID
	}{
		{"full-scan", rdf.Triple{}, [3]ID{}},
		{"bound-s", rdf.Triple{S: rdf.Res("S3")}, [3]ID{sub, 0, 0}},
		{"bound-p", rdf.Triple{P: rdf.Ont("p2")}, [3]ID{0, pred, 0}},
		{"bound-o", rdf.Triple{O: rdf.NewInteger(45)}, [3]ID{0, 0, obj}},
		{"bound-sp", rdf.Triple{S: rdf.Res("S3"), P: rdf.Ont("p2")}, [3]ID{sub, pred, 0}},
		{"bound-po", rdf.Triple{P: rdf.Ont("p2"), O: rdf.NewInteger(45)}, [3]ID{0, pred, obj}},
		{"bound-so", rdf.Triple{S: rdf.Res("S3"), O: rdf.NewInteger(45)}, [3]ID{sub, 0, obj}},
		{"ground", rdf.Triple{S: rdf.Res("S3"), P: rdf.Ont("p2"), O: rdf.NewInteger(45)}, [3]ID{sub, pred, obj}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := sn.Match(c.tp)
			var got []rdf.Triple
			sn.ForEachMatchIDs(c.ip, func(sid, pid, oid ID) bool {
				got = append(got, toTerm(sid, pid, oid))
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("ForEachMatchIDs yielded %d rows, Match %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("row %d: %v, want %v", i, got[i], want[i])
				}
			}
			if n := sn.EstimateCardinality(c.tp); n != len(want) {
				t.Fatalf("EstimateCardinality = %d, Match %d", n, len(want))
			}
			if got, want := sn.EstimateCardinalityIDs(c.ip), sn.EstimateCardinality(c.tp); got != want {
				t.Fatalf("EstimateCardinalityIDs = %d, EstimateCardinality = %d", got, want)
			}
		})
	}
}

func TestHasIDs(t *testing.T) {
	s := New()
	tr := rdf.Triple{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.Res("B")}
	s.add(tr)
	sn := s.Snapshot()
	sid, _ := sn.Lookup(tr.S)
	pid, _ := sn.Lookup(tr.P)
	oid, _ := sn.Lookup(tr.O)
	if !sn.HasIDs(sid, pid, oid) {
		t.Fatal("HasIDs = false for present triple")
	}
	if sn.HasIDs(oid, pid, sid) {
		t.Fatal("HasIDs = true for reversed triple")
	}
	if sn.HasIDs(0, pid, oid) {
		t.Fatal("HasIDs = true for zero subject")
	}
}

// TestForEachMatchIDsEarlyStop verifies fn returning false stops a scan.
func TestForEachMatchIDsEarlyStop(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.add(idTriple(i))
	}
	n := 0
	s.Snapshot().ForEachMatchIDs([3]ID{}, func(_, _, _ ID) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("scan visited %d triples after early stop, want 5", n)
	}
}

// TestTermsView checks the view covers every assigned ID and stays
// valid across subsequent writes.
func TestTermsView(t *testing.T) {
	s := New()
	s.add(rdf.Triple{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.Res("B")})
	sn := s.Snapshot()
	view := sn.TermsView()
	if len(view) != sn.TermCount() {
		t.Fatalf("view has %d terms, TermCount %d", len(view), sn.TermCount())
	}
	id, _ := sn.Lookup(rdf.Res("A"))
	a := view[id-1]
	// Grow the store; the old view must still resolve the old ID.
	for i := 0; i < 1000; i++ {
		s.add(idTriple(i))
	}
	if view[id-1] != a || view[id-1] != rdf.Res("A") {
		t.Fatal("old TermsView invalidated by later writes")
	}
}

// TestAddAllBatch checks the single-lock batch insert path: counts,
// duplicate suppression, and variable rejection.
func TestAddAllBatch(t *testing.T) {
	s := New()
	batch := []rdf.Triple{
		{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.Res("B")},
		{S: rdf.Res("A"), P: rdf.Ont("p"), O: rdf.Res("B")},    // duplicate
		{S: rdf.Res("C"), P: rdf.Ont("p"), O: rdf.NewVar("x")}, // variable: rejected
		{S: rdf.Res("C"), P: rdf.Ont("q"), O: rdf.Res("D")},
	}
	if n := s.AddAll(batch); n != 2 {
		t.Fatalf("AddAll = %d, want 2", n)
	}
	if s.Snapshot().Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Snapshot().Len())
	}
	if n := s.AddAll(batch); n != 0 {
		t.Fatalf("second AddAll = %d, want 0", n)
	}
}

// TestConcurrentReadersWithWriter runs parallel ForEachMatch /
// ForEachMatchIDs readers against a writer stream of Adds under -race.
// Readers only read published buckets, and the writer inserts into its
// batch's clones of the bucket slices in place, so a write that reached
// a published bucket fails the race detector; the final check catches a
// bucket whose keys, lists or total disagree.
func TestConcurrentReadersWithWriter(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		s.add(idTriple(i))
	}
	pid, _ := s.Snapshot().Lookup(rdf.Ont("p1"))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r % 3 {
				case 0: // ID scan with a bound predicate: one POS bucket
					s.Snapshot().ForEachMatchIDs([3]ID{0, pid, 0}, func(_, _, _ ID) bool { return true })
				case 1: // full scan: every SPO page and bucket
					n := 0
					s.Snapshot().ForEachMatchIDs([3]ID{}, func(_, _, _ ID) bool { n++; return n < 200 })
				default: // term-space scan with a bound subject
					s.Snapshot().ForEachMatch(rdf.Triple{S: rdf.Res("S7")}, func(rdf.Triple) bool { return true })
				}
			}
		}(r)
	}

	for i := 50; i < 2000; i++ {
		s.add(idTriple(i))
	}
	close(stop)
	wg.Wait()

	// After the writes, a full scan and the bucket totals agree with Len.
	sn := s.Snapshot()
	want := sn.Len()
	got := 0
	sn.ForEachMatchIDs([3]ID{}, func(_, _, _ ID) bool { got++; return true })
	if got != want {
		t.Fatalf("full scan after concurrent writes visited %d triples, Len = %d", got, want)
	}
	total := 0
	for id := ID(1); int(id) <= sn.TermCount(); id++ {
		total += sn.EstimateCardinalityIDs([3]ID{id, 0, 0})
	}
	if total != want {
		t.Fatalf("subject bucket totals sum to %d, Len = %d", total, want)
	}
}

// TestPostingList: the sorted posting lists behind the executor's
// merge joins must agree with ForEachMatchIDs for every two-bound
// pattern shape, and patterns without exactly one wildcard must be
// rejected.
func TestPostingList(t *testing.T) {
	st := New()
	var batch []rdf.Triple
	for i := 0; i < 40; i++ {
		batch = append(batch, rdf.Triple{
			S: rdf.Res(fmt.Sprintf("S%d", i%7)),
			P: rdf.Ont(fmt.Sprintf("p%d", i%3)),
			O: rdf.Res(fmt.Sprintf("O%d", i%5)),
		})
	}
	st.AddAll(batch)
	sn := st.Snapshot()

	patterns := [][3]ID{}
	sn.ForEachMatchIDs([3]ID{}, func(s, p, o ID) bool {
		patterns = append(patterns,
			[3]ID{0, p, o}, [3]ID{s, p, 0}, [3]ID{s, 0, o})
		return true
	})
	for _, pat := range patterns {
		lst, ok := sn.PostingList(pat)
		if !ok {
			t.Fatalf("PostingList(%v) rejected a one-wildcard pattern", pat)
		}
		var want []ID
		sn.ForEachMatchIDs(pat, func(s, p, o ID) bool {
			m := [3]ID{s, p, o}
			for i := range pat {
				if pat[i] == 0 {
					want = append(want, m[i])
				}
			}
			return true
		})
		if len(lst) != len(want) {
			t.Fatalf("PostingList(%v) = %v, want %v", pat, lst, want)
		}
		for i := range lst {
			if lst[i] != want[i] {
				t.Fatalf("PostingList(%v)[%d] = %d, want %d (list %v)", pat, i, lst[i], want[i], want)
			}
			if i > 0 && lst[i-1] >= lst[i] {
				t.Fatalf("PostingList(%v) not strictly sorted: %v", pat, lst)
			}
		}
	}

	for _, pat := range [][3]ID{{}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}} {
		if _, ok := sn.PostingList(pat); ok {
			t.Fatalf("PostingList(%v) accepted a non-one-wildcard pattern", pat)
		}
	}

	// Absent keys yield an empty list, not a failure.
	if lst, ok := sn.PostingList([3]ID{0, ID(sn.TermCount()), ID(sn.TermCount())}); !ok || len(lst) != 0 {
		t.Fatalf("absent pattern: lst=%v ok=%v", lst, ok)
	}
}
