package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/testutil"
)

// TestCacheRetention is the deterministic gate on what the answer cache
// keeps alive: the heap a full 1024-entry cache retains after one pass
// of the entity-template questions (1606 of them, so every entry is
// live and a third were evicted on the way). An entry is the terminal
// outcome with its rendered labels, about 0.45 KB — 0.45 MB in all (as
// a whole Result without labels it was 0.54 MB; while entries pinned
// the whole derivation, 6.9 MB). The plan cache's growth over the pass
// is in the figure too; the ceiling leaves it room.
func TestCacheRetention(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap figures are measured without the race detector")
	}
	cfg := DefaultConfig()
	cfg.CacheSize = 1024
	sys := New(cfg)
	questions := testutil.EntityQuestions(sys.KB)
	heapAlloc := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's sweep finalized
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heapAlloc()
	for _, q := range questions {
		sys.AnswerCtx(context.Background(), q)
	}
	after := heapAlloc()
	if n := sys.CacheEntries(); n < 1000 {
		t.Fatalf("%d cache entries after %d questions: the cache is not full", n, len(questions))
	}
	const ceiling = 1.5e6
	retained := float64(after) - float64(before)
	t.Logf("heap %d -> %d bytes: %.0f retained by %d entries", before, after, retained, sys.CacheEntries())
	if retained > ceiling {
		t.Errorf("a full cache retains %.2f MB, ceiling %.2f MB", retained/1e6, ceiling/1e6)
	}

	// The last question asked is in the cache: its hit carries the
	// outcome and none of the derivation.
	last := questions[len(questions)-1]
	hit := sys.AnswerCtx(context.Background(), last)
	if !hit.CacheHit() {
		t.Fatalf("%q missed a cache it was just put in", last)
	}
	if hit.Extraction != nil || hit.Mapping != nil || hit.Answer != nil {
		t.Errorf("a cache hit carries intermediates: extraction %v, mapping %v, answer %v",
			hit.Extraction != nil, hit.Mapping != nil, hit.Answer != nil)
	}
}
