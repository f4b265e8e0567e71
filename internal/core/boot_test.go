package core_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/qald"
	"repro/internal/testutil"
)

// TestCoreBootAllocations is boot's deterministic gate: the bytes and
// objects core.New allocates over a KB that is already built — the
// corpus, pattern mining, WordNet, the linker's and the mapper's
// indexes. Each ceiling is 10% above what the code measures (1.46 MB
// in 7,147 objects since the linker stopped tokenising every label for
// the spotter only tests use; 1.58 MB in 8,320 since the linker builds
// by store ID; 2.90 MB in
// 9,896 before it, and 5.58 MB in 31,982 while every sentence tagged
// its own span and a prefix tree held the supports) — raise one only
// with the reason in the commit.
func TestCoreBootAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings are measured without the race detector")
	}
	const maxBytes, maxObjects = 1_610_000, 7_870
	cfg := core.DefaultConfig()
	cfg.KB = kb.Default()
	core.New(cfg) // WordNet is built once per process
	const runs = 5
	objects := testing.AllocsPerRun(runs, func() { core.New(cfg) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		core.New(cfg)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("core.New: %.0f B and %.0f objects, ceilings %d B and %d", bytes, objects, maxBytes, maxObjects)
	if bytes > maxBytes {
		t.Errorf("%.0f B per boot, ceiling %d", bytes, maxBytes)
	}
	if objects > maxObjects {
		t.Errorf("%.0f objects per boot, ceiling %d", objects, maxObjects)
	}
}

// TestNewConcurrentBuilds runs four core.New over one KB at once — each
// builds its linker beside its own mining — and holds every System to
// one built alone on the QALD questions and 100 entity questions.
func TestNewConcurrentBuilds(t *testing.T) {
	k := kb.Default()
	cfg := core.DefaultConfig()
	cfg.KB = k
	var qs []string
	for _, q := range qald.Questions() {
		qs = append(qs, q.Text)
	}
	qs = append(qs, testutil.EntityQuestions(k)[:100]...)

	replies := func(s *core.System) []string {
		out := make([]string, len(qs))
		for i, q := range qs {
			res := s.AnswerCtx(context.Background(), q)
			var b strings.Builder
			fmt.Fprintf(&b, "%v %v", res.Status, res.AnswerStrings(k))
			if res.Answer != nil {
				for _, c := range res.Answer.Candidates {
					fmt.Fprintf(&b, "\n%s %g %v", c.SPARQL, c.Score, c.Executed)
				}
			}
			out[i] = b.String()
		}
		return out
	}
	want := replies(core.New(cfg))

	systems := make([]*core.System, 4)
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			systems[i] = core.New(cfg)
		}()
	}
	wg.Wait()
	for i, s := range systems {
		for j, got := range replies(s) {
			if got != want[j] {
				t.Errorf("system %d, %q:\n%s\nbuilt alone:\n%s", i, qs[j], got, want[j])
			}
		}
	}
}
