package shard

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/store"
)

// fakeClock is the injected clock the breaker/domain tests drive; no
// test in this file sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// neverFire is an AfterFunc whose timers never fire: with
// MaxAttempts=1, no timer in the domain needs to fire for a call to
// complete.
func neverFire(time.Duration, func()) Timer { return unfiredTimer{} }

type unfiredTimer struct{}

func (unfiredTimer) Stop() bool               { return true }
func (unfiredTimer) Reset(time.Duration) bool { return true }

// TestBreakerTransitions walks the full state machine under explicit
// times: closed → open at the threshold → half-open probe after the
// cooldown → re-open with doubled cooldown on probe failure (capped)
// → closed with the cooldown reset on probe success.
func TestBreakerTransitions(t *testing.T) {
	base := time.Unix(1000, 0)
	b := NewBreakerForTest(Config{
		BreakerThreshold:   3,
		BreakerCooldown:    time.Second,
		BreakerMaxCooldown: 4 * time.Second,
	})

	// Closed: passes calls, counts consecutive failures.
	if !b.allow(base) {
		t.Fatal("closed breaker rejected a call")
	}
	b.failure(base)
	b.failure(base)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 2/3 failures = %v, want closed", got)
	}
	b.failure(base) // threshold: trips open
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state at threshold = %v, want open", got)
	}

	// Open: rejects until the cooldown elapses.
	if b.allow(base.Add(999 * time.Millisecond)) {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}
	// Cooldown over: exactly one half-open probe.
	probeAt := base.Add(time.Second)
	if !b.allow(probeAt) {
		t.Fatal("breaker refused the half-open probe after the cooldown")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if b.allow(probeAt) {
		t.Fatal("second concurrent call admitted during the probe")
	}

	// Probe failure: re-open with the cooldown doubled (1s → 2s).
	b.failure(probeAt)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if b.allow(probeAt.Add(1999 * time.Millisecond)) {
		t.Fatal("re-opened breaker ignored the doubled cooldown")
	}
	probe2 := probeAt.Add(2 * time.Second)
	if !b.allow(probe2) {
		t.Fatal("no probe after the doubled cooldown")
	}
	// Another failure: 2s → 4s, at the cap.
	b.failure(probe2)
	if b.allow(probe2.Add(3999 * time.Millisecond)) {
		t.Fatal("breaker ignored the capped 4s cooldown")
	}
	probe3 := probe2.Add(4 * time.Second)
	if !b.allow(probe3) {
		t.Fatal("no probe at the capped cooldown")
	}
	// A further failure must not exceed the cap.
	b.failure(probe3)
	if !b.allow(probe3.Add(4 * time.Second)) {
		t.Fatal("cooldown grew past BreakerMaxCooldown")
	}

	// Probe success: closed, failure count and cooldown reset.
	b.success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	reset := probe3.Add(5 * time.Second)
	b.failure(reset)
	b.failure(reset)
	b.failure(reset) // trips again from a clean count
	if got := b.State(); got != BreakerOpen {
		t.Fatal("reset breaker did not re-trip at the threshold")
	}
	if !b.allow(reset.Add(time.Second)) {
		t.Fatal("cooldown was not reset to its base by the successful probe")
	}
}

// shardSubject returns an ID routed to the wanted shard.
func shardSubject(want, n int) store.ID {
	for sid := store.ID(1); ; sid++ {
		if ShardOf(sid, n) == want {
			return sid
		}
	}
}

// TestBreakerInDomain: the breaker trips inside the live call path —
// consecutive failed calls open it, an open breaker rejects without
// attempting the shard, and a half-open probe after the (advanced,
// injected) cooldown heals it once the fault clears.
func TestBreakerInDomain(t *testing.T) {
	src, _ := testStore(newRand(31), 40, 3)
	fc := &fakeClock{t: time.Unix(0, 0)}
	cfg := Config{
		AttemptTimeout:     time.Hour, // only the never-firing injected timers
		MaxAttempts:        1,
		BreakerThreshold:   2,
		BreakerCooldown:    time.Second,
		BreakerMaxCooldown: 8 * time.Second,
		Now:                fc.Now,
		AfterFunc:          neverFire,
	}
	const n = 2
	c := NewCluster(src, n, cfg)
	in := chaos.New(1, chaos.Rule{Point: "shard.query.0", Kind: chaos.KindError, Prob: 1})
	ctx := WithPartialOK(chaos.With(context.Background(), in))
	sid := shardSubject(0, n)

	// Two failed calls (fresh view each: the first failure marks the
	// shard dead for its view) trip the breaker.
	for i := 0; i < 2; i++ {
		c.NewView(ctx).PostingList([3]store.ID{sid, 1, 0})
	}
	if got := c.Stats()[0].Breaker; got != BreakerOpen {
		t.Fatalf("breaker after %d failures = %v, want open", 2, got)
	}

	// Open: the next call is rejected without reaching the shard.
	attemptsBefore := c.Stats()[0].Attempts
	c.NewView(ctx).PostingList([3]store.ID{sid, 1, 0})
	st := c.Stats()[0]
	if st.Attempts != attemptsBefore {
		t.Fatalf("open breaker still attempted the shard: %d -> %d", attemptsBefore, st.Attempts)
	}
	if st.BreakerRejects == 0 {
		t.Fatal("breaker rejection not counted")
	}

	// Fault clears — the next view's context carries no injector;
	// after the cooldown the half-open probe succeeds and the shard
	// serves again.
	fc.Advance(1100 * time.Millisecond)
	healthy := c.NewView(context.Background())
	healthy.PostingList([3]store.ID{sid, 1, 0}) // the probe
	if got := c.Stats()[0].Breaker; got != BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", got)
	}
	if out := healthy.Outcome(); out.Degraded {
		t.Fatalf("healed cluster still degraded: %+v", out)
	}
}

// TestBreakerProbeFailureDoublesCooldown drives the probe-failure
// path through the domain: a failed half-open probe re-opens the
// breaker and the next probe is only admitted after twice the base
// cooldown.
func TestBreakerProbeFailureDoublesCooldown(t *testing.T) {
	src, _ := testStore(newRand(32), 30, 2)
	fc := &fakeClock{t: time.Unix(0, 0)}
	cfg := Config{
		AttemptTimeout:     time.Hour,
		MaxAttempts:        1,
		BreakerThreshold:   1,
		BreakerCooldown:    time.Second,
		BreakerMaxCooldown: 8 * time.Second,
		Now:                fc.Now,
		AfterFunc:          neverFire,
	}
	const n = 2
	c := NewCluster(src, n, cfg)
	in := chaos.New(1, chaos.Rule{Point: "shard.query.0", Kind: chaos.KindError, Prob: 1})
	ctx := WithPartialOK(chaos.With(context.Background(), in))
	sid := shardSubject(0, n)

	c.NewView(ctx).PostingList([3]store.ID{sid, 1, 0}) // trips (threshold 1)
	if got := c.Stats()[0].Breaker; got != BreakerOpen {
		t.Fatalf("breaker = %v, want open", got)
	}
	fc.Advance(1100 * time.Millisecond)
	c.NewView(ctx).PostingList([3]store.ID{sid, 1, 0}) // probe, still failing → re-open, 2s
	if got := c.Stats()[0].Breaker; got != BreakerOpen {
		t.Fatalf("breaker after failed probe = %v, want open", got)
	}
	// The fault clears: the views below carry no injector.
	fc.Advance(1100 * time.Millisecond) // only 1.1s into the doubled cooldown
	attempts := c.Stats()[0].Attempts
	c.NewView(WithPartialOK(context.Background())).PostingList([3]store.ID{sid, 1, 0})
	if c.Stats()[0].Attempts != attempts {
		t.Fatal("probe admitted before the doubled cooldown elapsed")
	}
	fc.Advance(time.Second) // past 2s total
	c.NewView(context.Background()).PostingList([3]store.ID{sid, 1, 0})
	if got := c.Stats()[0].Breaker; got != BreakerClosed {
		t.Fatalf("breaker after healed probe = %v, want closed", got)
	}
}
