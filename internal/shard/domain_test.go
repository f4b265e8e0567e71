package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/sparql"
	"repro/internal/store"
)

// TestRetryRecoversTransientError: a once-only injected error costs
// one backoff retry and the call still answers correctly.
func TestRetryRecoversTransientError(t *testing.T) {
	src, props := testStore(newRand(41), 50, 3)
	const n = 2
	c := NewCluster(src, n, fastConfig())
	in := chaos.New(1, chaos.Rule{Point: "shard.query.*", Kind: chaos.KindError, Prob: 1, Limit: 1})
	ctx := chaos.With(context.Background(), in)

	qs := workload(props)
	want := runWorkload(t, context.Background(), sparql.NewSnapshotSession(src.Snapshot()), qs)
	v := c.NewView(ctx)
	got := runWorkload(t, ctx, sparql.NewViewSession(v), qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d diverged after transient error: %s vs %s", i, got[i], want[i])
		}
	}
	if err := v.Err(); err != nil {
		t.Fatalf("transient error escaped the retry ladder: %v", err)
	}
	retries := uint64(0)
	for _, s := range c.Stats() {
		retries += s.Retries
	}
	if retries != 1 {
		t.Fatalf("retries = %d, want exactly 1 (the injected transient)", retries)
	}
}

// TestAttemptTimeoutMapsToUnavailable: a shard stuck past the
// per-attempt timeout surfaces as ErrUnavailable, never as the
// caller's context.DeadlineExceeded (a shard outage is not a client
// timeout).
func TestAttemptTimeoutMapsToUnavailable(t *testing.T) {
	src, _ := testStore(newRand(43), 30, 2)
	const n = 2
	cfg := fastConfig()
	cfg.AttemptTimeout = 20 * time.Millisecond
	cfg.MaxAttempts = 1
	c := NewCluster(src, n, cfg)
	in := chaos.New(1, chaos.Rule{
		Point: "shard.query.*", Kind: chaos.KindLatency,
		Latency: 300 * time.Millisecond, Prob: 1,
	})
	ctx := chaos.With(context.Background(), in)
	v := c.NewView(ctx)
	v.PostingList([3]store.ID{shardSubject(0, n), 1, 0})
	err := v.Err()
	if err == nil || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("view error = %v, want ErrUnavailable", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shard timeout leaked as context.DeadlineExceeded: %v", err)
	}
}

// TestRequestDeadlineCapsAttempt: the per-attempt timeout shrinks to
// the remaining request deadline, so a short X-Request-Budget bounds
// even the first attempt against a stuck shard.
func TestRequestDeadlineCapsAttempt(t *testing.T) {
	src, _ := testStore(newRand(44), 30, 2)
	const n = 2
	cfg := fastConfig()
	cfg.AttemptTimeout = 10 * time.Second // the deadline, not this, must bound the call
	cfg.MaxAttempts = 3
	c := NewCluster(src, n, cfg)
	in := chaos.New(1, chaos.Rule{
		Point: "shard.query.*", Kind: chaos.KindLatency,
		Latency: 2 * time.Second, Prob: 1,
	})
	base := chaos.With(context.Background(), in)
	ctx, cancel := context.WithTimeout(base, 40*time.Millisecond)
	defer cancel()

	start := time.Now()
	v := c.NewView(ctx)
	v.PostingList([3]store.ID{shardSubject(0, n), 1, 0})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("stuck shard held the call for %v despite a 40ms deadline", elapsed)
	}
	if err := v.Err(); err == nil || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("view error = %v, want ErrUnavailable", err)
	}
}
