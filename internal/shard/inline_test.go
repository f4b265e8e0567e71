package shard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/testutil"
)

// manualTimers is an AfterFunc factory whose timers fire only when the
// test says so, as time.AfterFunc's do: into their own goroutine. It
// counts every arming and every Stop that disarmed one.
type manualTimers struct {
	mu      sync.Mutex
	armed   int
	stopped int
	timers  []*manualTimer
}

type manualTimer struct {
	m      *manualTimers
	fn     func()
	active bool          // guarded by m.mu
	d      time.Duration // the last arming's delay; guarded by m.mu
}

func (m *manualTimers) AfterFunc(d time.Duration, fn func()) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &manualTimer{m: m, fn: fn, active: true, d: d}
	m.armed++
	m.timers = append(m.timers, t)
	return t
}

func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	was := t.active
	t.active = false
	if was {
		t.m.stopped++
	}
	return was
}

func (t *manualTimer) Reset(d time.Duration) bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	was := t.active
	t.active, t.d = true, d
	t.m.armed++
	return was
}

// fireActive fires the one armed timer and returns the delay it was
// armed with.
func (m *manualTimers) fireActive(t *testing.T) time.Duration {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	var live []*manualTimer
	for _, tm := range m.timers {
		if tm.active {
			live = append(live, tm)
		}
	}
	if len(live) != 1 {
		t.Fatalf("%d timers armed, want exactly 1", len(live))
	}
	live[0].active = false
	go live[0].fn()
	return live[0].d
}

// counts returns (armed, stopped, still active).
func (m *manualTimers) counts() (armed, stopped, active int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tm := range m.timers {
		if tm.active {
			active++
		}
	}
	return m.armed, m.stopped, active
}

// waitInjected blocks until the injector has delivered n latency
// faults at point: the attempts that drew them are now waiting.
func waitInjected(t *testing.T, in *chaos.Injector, point string, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, inj := range in.Snapshot() {
			if inj.Point == point && inj.Kind == chaos.KindLatency && inj.Count >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no attempt reached %s after 5s", point)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHealthyCallLeavesNothingBehind: on the healthy path every timer
// a call arms is stopped by that call, none fires, and no goroutine is
// ever started.
func TestHealthyCallLeavesNothingBehind(t *testing.T) {
	src, _ := testStore(newRand(51), 40, 3)
	const n, calls = 2, 500
	timers := &manualTimers{}
	cfg := fastConfig()
	cfg.AfterFunc = timers.AfterFunc
	c := NewCluster(src, n, cfg)
	v := c.NewView(context.Background())
	for i := 0; i < calls; i++ {
		v.PostingList([3]store.ID{store.ID(1 + i%30), 1, 0})
	}
	armed, stopped, active := timers.counts()
	if armed != calls || stopped != calls || active != 0 {
		t.Fatalf("after %d healthy calls: %d timers armed, %d stopped, %d still armed", calls, armed, stopped, active)
	}

	// And with the production defaults: no goroutine per call.
	c = NewCluster(src, n, Config{})
	v = c.NewView(context.Background())
	before := runtime.NumGoroutine()
	for i := 0; i < 10_000; i++ {
		v.PostingList([3]store.ID{store.ID(1 + i%30), 1, 0})
		if i%1000 == 0 {
			if now := runtime.NumGoroutine(); now > before {
				t.Fatalf("call %d: %d goroutines, %d before the loop", i, now, before)
			}
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after 10k healthy calls, %d before", after, before)
	}
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	for i, s := range c.Stats() {
		if s.Retries != 0 {
			t.Fatalf("shard %d: healthy calls counted %d retries", i, s.Retries)
		}
	}
}

// stuckFixture is a 2-shard cluster on manual timers with a 1 s attempt
// timeout and one attempt per call, and a chaos rule that holds the
// first attempt on shard 0 for an hour (until its context ends).
func stuckFixture(t *testing.T) (*Cluster, *manualTimers, *chaos.Injector, context.Context) {
	t.Helper()
	src, _ := testStore(newRand(52), 40, 3)
	timers := &manualTimers{}
	c := NewCluster(src, 2, Config{
		AttemptTimeout: time.Second,
		MaxAttempts:    1,
		AfterFunc:      timers.AfterFunc,
	})
	in := chaos.New(1, chaos.Rule{
		Point: "shard.query.0", Kind: chaos.KindLatency,
		Latency: time.Hour, Prob: 1, Limit: 1,
	})
	return c, timers, in, chaos.With(context.Background(), in)
}

// TestAttemptTimeoutReleasesPrimary: the call's timer is armed once,
// with the whole attempt timeout; its firing releases the stuck inline
// primary and the call fails as a shard outage.
func TestAttemptTimeoutReleasesPrimary(t *testing.T) {
	c, timers, in, ctx := stuckFixture(t)
	v := c.NewView(ctx)
	done := make(chan struct{})
	go func() { v.PostingList([3]store.ID{shardSubject(0, 2), 1, 0}); close(done) }()
	waitInjected(t, in, "shard.query.0", 1)
	if d := timers.fireActive(t); d != time.Second {
		t.Fatalf("timer armed with %v, want the attempt timeout (1s)", d)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the timeout did not release the call")
	}
	err := v.Err()
	if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "timed out after 1s") {
		t.Fatalf("view error = %v, want ErrUnavailable from the attempt timeout", err)
	}
	if st := c.Stats()[0]; st.Attempts != 1 || st.Retries != 0 || st.Failures != 1 {
		t.Fatalf("after the timeout: %+v, want 1 attempt, 0 retries, 1 failure", st)
	}
	if armed, _, active := timers.counts(); armed != 1 || active != 0 {
		t.Fatalf("%d timer armings, %d still armed; want the one arming, fired", armed, active)
	}
}

// TestCallerGoneEndsTheWait: with the attempt stuck, the caller's
// context ending releases the inline primary at once.
func TestCallerGoneEndsTheWait(t *testing.T) {
	c, timers, in, base := stuckFixture(t)
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	v := c.NewView(ctx)
	done := make(chan struct{})
	go func() { v.PostingList([3]store.ID{shardSubject(0, 2), 1, 0}); close(done) }()
	waitInjected(t, in, "shard.query.0", 1)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the caller's cancellation did not release the call")
	}
	if err := v.Err(); !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("view error = %v, want ErrUnavailable from the cancelled call", err)
	}
	if _, _, active := timers.counts(); active != 0 {
		t.Fatalf("%d timers outlived the cancelled call", active)
	}
}

// TestInlinePrimaryPanicIsAnAttemptError: the primary runs on the
// caller's goroutine, so its recover net is all that stands between a
// crashing shard and the caller.
func TestInlinePrimaryPanicIsAnAttemptError(t *testing.T) {
	src, _ := testStore(newRand(53), 30, 2)
	c := NewCluster(src, 2, deadShardConfig())
	in := chaos.New(1, chaos.Rule{Point: "shard.query.*", Kind: chaos.KindPanic, Prob: 1})
	v := c.NewView(chaos.With(context.Background(), in))
	if ids, _ := v.PostingList([3]store.ID{shardSubject(0, 2), 1, 0}); ids != nil {
		t.Fatalf("crashed owner answered %v", ids)
	}
	err := v.Err()
	if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "attempt crashed") {
		t.Fatalf("view error = %v, want ErrUnavailable from the crashed attempt", err)
	}
	if st := c.Stats()[0]; st.Attempts != 1 || st.Failures != 1 {
		t.Fatalf("crashed call: %+v, want 1 attempt, 1 failure", st)
	}
}

// TestHealthyCallAllocs: a healthy call through the whole domain
// allocates nothing beyond what its read returns, and a type-set read
// (sparql.Session.InstanceOf) costs its one posting-list copy.
func TestHealthyCallAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings do not hold under -race")
	}
	src, _ := testStore(newRand(54), 40, 3)
	c := NewCluster(src, 2, Config{})
	ctx := context.Background()
	v := c.NewView(ctx)
	sid := shardSubject(0, 2)
	d, sn := c.domains[0], v.shards[0]
	op := shardOp{opPosting, [3]store.ID{sid, 1, 0}}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := d.run(ctx, sn, op); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("healthy domain.run: %.1f allocs, ceiling 2", n)
	}

	typeID, _ := v.Lookup(rdf.Type())
	pat := [3]store.ID{sid, typeID, 0}
	if n := testing.AllocsPerRun(1000, func() { v.PostingList(pat) }); n > 2 {
		t.Errorf("type-set read through the view: %.1f allocs, ceiling 2", n)
	}
	// Through a session, by ID: the first probe of an entity reads, the
	// rest are answered from the session without a shard call.
	class, _ := v.Lookup(rdf.Ont("Person"))
	sess := sparql.NewViewSession(v)
	sess.InstanceOf(sid, class)
	attempts := c.Stats()[0].Attempts
	if n := testing.AllocsPerRun(1000, func() { sess.InstanceOf(sid, class) }); n > 0 {
		t.Errorf("repeated InstanceOf: %.1f allocs, want 0", n)
	}
	if got := c.Stats()[0].Attempts; got != attempts {
		t.Errorf("repeated InstanceOf made %d shard calls, want none", got-attempts)
	}
}
