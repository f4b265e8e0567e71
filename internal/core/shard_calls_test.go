package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/kb"
	"repro/internal/shard"
	"repro/internal/testutil"
)

// TestShardCallsPerQuestionDeterministic: with the candidates of a
// question executed one at a time in rank order, the number of shard
// calls a question makes is a function of the question — two passes of
// the entity-template stream over a 4-shard view count the same calls,
// question by question. (Under the speculative pool the count depended
// on which losers had started when the winner committed.) This is what
// lets shard.calls_per_q serve as a regression counter.
func TestShardCallsPerQuestionDeterministic(t *testing.T) {
	k := kb.Build(kb.DefaultConfig()) // private copy: the cluster partitions its store
	cluster := shard.NewCluster(k.Store, 4, shard.Config{})
	cfg := DefaultConfig()
	cfg.KB, cfg.Cluster = k, cluster
	sys := New(cfg)
	questions := testutil.EntityQuestions(k)

	// Calls, not attempts: a retry is an extra attempt the failure
	// domain adds when a call outlives its timeout on a busy host, which
	// is timing, not the question.
	attempts := func() (n uint64) {
		for _, s := range cluster.Stats() {
			n += s.Attempts - s.Retries
		}
		return n
	}
	pass := func() (calls []uint64, mapped int) {
		calls = make([]uint64, len(questions))
		for i, q := range questions {
			before := attempts()
			if res := sys.AnswerCtx(context.Background(), q); res.Answer != nil {
				mapped++
			}
			calls[i] = attempts() - before
		}
		return calls, mapped
	}
	first, mapped := pass()
	second, _ := pass()
	if mapped < 1500 {
		t.Fatalf("only %d of %d questions reached the answer stage", mapped, len(questions))
	}
	if !slices.Equal(first, second) {
		for i := range first {
			if first[i] != second[i] {
				t.Errorf("%q: %d shard calls on the first pass, %d on the second", questions[i], first[i], second[i])
			}
		}
	}
	var total uint64
	for _, c := range first {
		total += c
	}
	if total < uint64(mapped) {
		t.Fatalf("%d shard calls over %d mapped questions: the view is not being read", total, mapped)
	}
	t.Logf("%d mapped questions, %.2f shard calls per question", mapped, float64(total)/float64(mapped))
}
