package store_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/testutil"
)

// The write path measured the way update_mix drives it: flipStore holds
// ≈ 6.5k triples, 512 of them dbont:benchState literals on 64 batches
// of 8 subjects, and a flip replaces one batch's 8 literals with the
// other state's (8 deletes then 8 inserts, one ApplyBatch). Once both
// states have been seen the dictionary stops growing, so every flip
// after the first cycle interns nothing.

const (
	flipBatches = 64
	flipTriples = 8
)

// benchState is one batch's 8 dbont:benchState triples in state s.
func benchState(batch int, s string) []rdf.Triple {
	ts := make([]rdf.Triple, flipTriples)
	for i := range ts {
		ts[i] = rdf.Triple{
			S: rdf.Res(fmt.Sprintf("Bench_%d_%d", batch, i)),
			P: rdf.Ont("benchState"),
			O: rdf.NewLiteral(fmt.Sprintf("%s-%d-%d", s, batch, i)),
		}
	}
	return ts
}

func flipOps(batch int, from, to string) []store.BatchOp {
	return []store.BatchOp{{Delete: true, Triples: benchState(batch, from)}, {Triples: benchState(batch, to)}}
}

// flipStore returns the store, with scale times the base triples, and
// one full cycle of flips (a→b for every batch, then b→a), which leaves
// the contents as they began.
func flipStore(scale int) (*store.Store, [][]store.BatchOp) {
	st := store.New()
	var base []rdf.Triple
	for i := 0; i < 6000*scale; i++ {
		base = append(base, rdf.Triple{
			S: rdf.Res(fmt.Sprintf("E%d", i%(1500*scale))),
			P: rdf.Ont(fmt.Sprintf("p%d", i%23)),
			O: rdf.Res(fmt.Sprintf("V%d", (i*7)%(700*scale))),
		})
	}
	st.AddAll(base)
	var cycle [][]store.BatchOp
	for _, flip := range [][2]string{{"a", "b"}, {"b", "a"}} {
		for b := 0; b < flipBatches; b++ {
			cycle = append(cycle, flipOps(b, flip[0], flip[1]))
		}
	}
	for b := 0; b < flipBatches; b++ {
		st.AddAll(benchState(b, "a"))
	}
	for _, ops := range cycle {
		st.ApplyBatch(ops) // interns the "b" state
	}
	return st, cycle
}

// flipCost applies one cycle of flips and returns the bytes and
// objects allocated per flip.
func flipCost(st *store.Store, cycle [][]store.BatchOp) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ops := range cycle {
		st.ApplyBatch(ops)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(cycle))
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}

// BenchmarkApplyBatchFlip is one update_mix write: 8 deletes and 8
// inserts on a 512-object predicate, applied as one batch.
func BenchmarkApplyBatchFlip(b *testing.B) {
	st, cycle := flipStore(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if added, removed := st.ApplyBatch(cycle[i%len(cycle)]); added != flipTriples || removed != flipTriples {
			b.Fatalf("flip added %d and removed %d, want %d each", added, removed, flipTriples)
		}
	}
}

// TestApplyBatchAllocations holds a flip's bytes and objects to
// ceilings 10% above what was measured when they were set.
func TestApplyBatchAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are measured without the race detector")
	}
	const ceilBytes, ceilObjects = 15700, 60 // logged 14233 B and 54.1; 14009 B and 35.1 with the kind table
	st, cycle := flipStore(1)
	bytes, objects := flipCost(st, cycle)
	t.Logf("%d flips: %.0f B and %.1f objects per flip, ceilings %d B and %d", len(cycle), bytes, objects, ceilBytes, ceilObjects)
	if bytes > ceilBytes {
		t.Errorf("%.0f B per flip, ceiling %d", bytes, ceilBytes)
	}
	if objects > ceilObjects {
		t.Errorf("%.1f objects per flip, ceiling %d", objects, ceilObjects)
	}
}

// TestApplyBatchScales: a flip copies the path to what it touches, not
// a level of the index, so on 16 times the base triples (and about 10
// times the terms, which adds a level to every index tree) it costs at
// most a quarter more bytes.
func TestApplyBatchScales(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation figures are measured without the race detector")
	}
	small, _ := flipCost(flipStore(1))
	large, _ := flipCost(flipStore(16))
	t.Logf("B per flip: %.0f at ×1, %.0f at ×16 (%.2f×)", small, large, large/small)
	if large > 1.25*small {
		t.Errorf("a flip at ×16 costs %.0f B, more than 1.25 × %.0f B at ×1", large, small)
	}
}

// The fresh-literal write: each replaces Orhan_Pamuk's dbont:note with
// a literal the dictionary has not seen, so every write adds one term,
// and the dictionary grows with the write history. noteRound writes run
// on one store before a benchmark rebuilds it, so the dictionary stays
// near the size measured.
const noteRound = 1024

// noteStore returns a constructor of the built-in KB's store with extra
// more terms interned, and noteRound fresh-literal writes to apply to
// it in order.
func noteStore(extra int) (func() *store.Store, [][]store.BatchOp) {
	filler := make([]rdf.Term, extra)
	for i := range filler {
		filler[i] = rdf.NewLiteral(fmt.Sprintf("filler %d", i))
	}
	newStore := func() *store.Store {
		st := kb.Build(kb.DefaultConfig()).Store
		st.Batch(0, func(b *store.Batch) {
			for _, t := range filler {
				b.Intern(t)
			}
		})
		return st
	}
	note := func(i int) []rdf.Triple {
		return []rdf.Triple{{S: rdf.Res("Orhan_Pamuk"), P: rdf.Ont("note"), O: rdf.NewLiteral(fmt.Sprintf("note %d", i))}}
	}
	writes := make([][]store.BatchOp, noteRound)
	for i := range writes {
		writes[i] = []store.BatchOp{{Delete: true, Triples: note(i - 1)}, {Triples: note(i)}}
	}
	return newStore, writes
}

// noteCost applies one round of fresh-literal writes and returns the
// median bytes a write allocates. The median, not the mean: the
// append-only term slice grows by about a quarter at a time, so one
// write in thousands pays for copying it, and whether that write falls
// inside the round decides the round's mean (by about 1.3 KB a write
// at +16k).
func noteCost(extra int) float64 {
	newStore, writes := noteStore(extra)
	st := newStore()
	per := make([]uint64, len(writes))
	var ms runtime.MemStats
	for i, ops := range writes {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		st.ApplyBatch(ops)
		runtime.ReadMemStats(&ms)
		per[i] = ms.TotalAlloc - before
	}
	slices.Sort(per)
	return float64(per[len(per)/2])
}

// BenchmarkApplyBatchFreshTerm is the fresh-literal write on the
// built-in KB (x1) and after 16k more terms (+16k). Its B/op includes
// the term slice's growth, which a round at +16k may or may not reach.
func BenchmarkApplyBatchFreshTerm(b *testing.B) {
	for _, c := range []struct {
		name  string
		extra int
	}{{"x1", 0}, {"+16k", 16 << 10}} {
		b.Run(c.name, func(b *testing.B) {
			newStore, writes := noteStore(c.extra)
			st := newStore()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%noteRound == 0 {
					b.StopTimer()
					st = newStore()
					b.StartTimer()
				}
				if added, _ := st.ApplyBatch(writes[i%noteRound]); added != 1 {
					b.Fatalf("write %d added %d triples, want 1", i, added)
				}
			}
		})
	}
}

// TestFreshTermWriteScales: a write that adds a term copies the path to
// one dictionary bucket, so after 16k more terms (which also put every
// triple index a level deeper) the fresh-literal write costs at most a
// quarter more bytes than on the built-in KB.
func TestFreshTermWriteScales(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation figures are measured without the race detector")
	}
	small, large := noteCost(0), noteCost(16<<10)
	t.Logf("median B per fresh-literal write: %.0f on the built-in KB, %.0f after +16k terms (%.2f×)", small, large, large/small)
	if large > 1.25*small {
		t.Errorf("a fresh-literal write after +16k terms costs %.0f B, more than 1.25 × %.0f B on the built-in KB", large, small)
	}
}

// TestUpdateTextNotRetained: a term an update introduces is stored
// with strings of its own. The parser hands out substrings of the
// request, so storing them as they are would keep the whole request
// text alive for as long as the term is in the dictionary.
func TestUpdateTextNotRetained(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap figures are measured without the race detector")
	}
	const updateKB = 970
	st := store.New()
	old := `<http://example.org/s> <http://example.org/p> <http://example.org/o> .` + "\n"
	st.AddAll([]rdf.Triple{{S: rdf.NewIRI("http://example.org/s"), P: rdf.NewIRI("http://example.org/p"), O: rdf.NewIRI("http://example.org/o")}})
	apply := func() {
		// Triples the store already holds, and one new IRI.
		src := "INSERT DATA {\n" + strings.Repeat(old, updateKB<<10/len(old)) +
			"<http://example.org/s> <http://example.org/p> <http://example.org/new> .\n}"
		ops, err := sparql.ParseUpdate(src)
		if err != nil {
			t.Fatal(err)
		}
		if added, _ := st.ApplyBatch(ops); added != 1 {
			t.Fatalf("update added %d triples, want 1", added)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	apply()
	after := heap()
	runtime.KeepAlive(st)
	retained := int64(after) - int64(before)
	t.Logf("the store retains %d B after a %d KB update", retained, updateKB)
	if retained >= 64<<10 {
		t.Errorf("the store retains %d B after the update, want < 64 KB", retained)
	}
}
