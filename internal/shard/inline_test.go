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

// stepClock is an injected clock that moves step forward on every
// read, so a healthy call (which reads it at its start and at its end)
// observes a latency of exactly one step.
type stepClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
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
		v.HasIDs(store.ID(1+i%30), 1, 1)
	}
	armed, stopped, active := timers.counts()
	if armed != calls || stopped != calls || active != 0 {
		t.Fatalf("after %d healthy calls: %d timers armed, %d stopped, %d still armed", calls, armed, stopped, active)
	}

	// And with the production timers: no goroutine per call. The hedge
	// delays are out of any scheduling gap's reach — at the defaults (2 ms
	// floor) a call descheduled on a busy host fires its hedge, which is
	// the host's timing and failed this test about once in 25 runs beside
	// another package's tests.
	c = NewCluster(src, n, Config{HedgeDelay: time.Minute, MinHedgeDelay: time.Minute})
	v = c.NewView(context.Background())
	before := runtime.NumGoroutine()
	for i := 0; i < 10_000; i++ {
		v.HasIDs(store.ID(1+i%30), 1, 1)
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
		if s.Hedges != 0 || s.Retries != 0 {
			t.Fatalf("shard %d: healthy calls counted %d hedges, %d retries", i, s.Hedges, s.Retries)
		}
	}
}

// hedgeFixture is a 2-shard cluster on manual timers and a stepping
// clock, with a chaos rule that holds the first `stuck` attempts on
// shard 0 for an hour (until their context ends).
func hedgeFixture(t *testing.T, stuck int) (*Cluster, *manualTimers, *chaos.Injector, context.Context) {
	t.Helper()
	src, _ := testStore(newRand(52), 40, 3)
	timers := &manualTimers{}
	clock := &stepClock{t: time.Unix(0, 0), step: 3 * time.Millisecond}
	c := NewCluster(src, 2, Config{
		AttemptTimeout: time.Second,
		MaxAttempts:    1,
		HedgeDelay:     10 * time.Millisecond,
		MinHedgeDelay:  time.Millisecond,
		Now:            clock.Now,
		AfterFunc:      timers.AfterFunc,
	})
	in := chaos.New(1, chaos.Rule{
		Point: "shard.query.0", Kind: chaos.KindLatency,
		Latency: time.Hour, Prob: 1, Limit: stuck,
	})
	in.Disable()
	return c, timers, in, chaos.With(context.Background(), in)
}

// TestHedgeIffPrimaryOutlivesP95: the call's timer is armed with
// Config.HedgeDelay until the latency ring has been read, then with
// the ring's p95; a hedge is launched exactly when that timer fires
// while the primary is still running, it releases the inline primary
// by winning, and Attempts/Hedges/Retries count one primary and one
// hedge.
func TestHedgeIffPrimaryOutlivesP95(t *testing.T) {
	c, timers, in, ctx := hedgeFixture(t, 1)
	sid := shardSubject(0, 2)
	want := c.NewView(ctx).HasIDs(sid, 1, 1)

	// Warm the ring: every healthy call observes one 3 ms clock step.
	for i := 1; i < p95Every; i++ {
		c.NewView(ctx).HasIDs(sid, 1, 1)
	}
	if got := c.domains[0].hedgeDelay(); got != 3*time.Millisecond {
		t.Fatalf("hedge delay after %d observations of 3ms = %v, want the ring's p95", p95Every, got)
	}
	st := c.Stats()[0]
	if st.Attempts != p95Every || st.Hedges != 0 || st.Retries != 0 {
		t.Fatalf("healthy calls: %+v, want %d attempts and no hedge", st, p95Every)
	}

	// A primary that outlives the delay: hold it, then fire its timer.
	in.Enable()
	v := c.NewView(ctx)
	got := make(chan bool)
	go func() { got <- v.HasIDs(sid, 1, 1) }()
	waitInjected(t, in, "shard.query.0", 1)
	if st := c.Stats()[0]; st.Hedges != 0 || st.Attempts != p95Every+1 {
		t.Fatalf("before the timer fired: %+v, want no hedge yet", st)
	}
	if d := timers.fireActive(t); d != 3*time.Millisecond {
		t.Fatalf("hedge timer armed with %v, want the p95 (3ms)", d)
	}
	select {
	case ok := <-got:
		if ok != want {
			t.Fatalf("hedged read answered %v, healthy read %v", ok, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the won hedge did not release the inline primary")
	}
	if err := v.Err(); err != nil {
		t.Fatalf("hedged read failed: %v", err)
	}
	st = c.Stats()[0]
	if st.Attempts != p95Every+2 || st.Hedges != 1 || st.Retries != 0 || st.Failures != 0 {
		t.Fatalf("after the hedge: %+v, want %d attempts, 1 hedge, 0 retries", st, p95Every+2)
	}
	if _, _, active := timers.counts(); active != 0 {
		t.Fatalf("%d timers outlived the hedged call", active)
	}
}

// TestTimeoutCancelsPrimaryAndHedge: with both attempts stuck, the
// timer's second firing is the attempt timeout: it releases both and
// the call fails as a shard outage.
func TestTimeoutCancelsPrimaryAndHedge(t *testing.T) {
	c, timers, in, ctx := hedgeFixture(t, 2)
	in.Enable()
	v := c.NewView(ctx)
	done := make(chan struct{})
	go func() { v.HasIDs(shardSubject(0, 2), 1, 1); close(done) }()
	waitInjected(t, in, "shard.query.0", 1)
	if d := timers.fireActive(t); d != 10*time.Millisecond {
		t.Fatalf("hedge timer armed with %v, want Config.HedgeDelay", d)
	}
	waitInjected(t, in, "shard.query.0", 2) // the hedge is stuck too
	// The re-armed timer is the rest of the pair's budget.
	if d := timers.fireActive(t); d != time.Second-10*time.Millisecond {
		t.Fatalf("timeout timer armed with %v, want the timeout less the hedge delay", d)
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
	if st := c.Stats()[0]; st.Attempts != 2 || st.Hedges != 1 || st.Failures != 1 {
		t.Fatalf("after the timeout: %+v, want 2 attempts, 1 hedge, 1 failure", st)
	}
	if _, _, active := timers.counts(); active != 0 {
		t.Fatalf("%d timers outlived the timed-out call", active)
	}
}

// TestFailedHedgeLeavesThePrimaryToDecide: a hedge that fails while
// the primary is still running changes nothing; the primary's own
// answer is the call's.
func TestFailedHedgeLeavesThePrimaryToDecide(t *testing.T) {
	c, timers, _, _ := hedgeFixture(t, 0)
	in := chaos.New(1,
		chaos.Rule{Point: "shard.query.0", Kind: chaos.KindLatency, Latency: 50 * time.Millisecond, Prob: 1, Limit: 1},
		chaos.Rule{Point: "shard.hedge", Kind: chaos.KindError, Prob: 1},
	)
	sid := shardSubject(0, 2)
	want := c.NewView(context.Background()).HasIDs(sid, 1, 1)
	v := c.NewView(chaos.With(context.Background(), in))
	got := make(chan bool)
	go func() { got <- v.HasIDs(sid, 1, 1) }()
	waitInjected(t, in, "shard.query.0", 1)
	timers.fireActive(t)
	if ok := <-got; ok != want {
		t.Fatalf("read answered %v after its hedge failed, healthy read %v", ok, want)
	}
	if err := v.Err(); err != nil {
		t.Fatalf("failed hedge failed the call: %v", err)
	}
	if st := c.Stats()[0]; st.Attempts != 3 || st.Hedges != 1 || st.Failures != 0 {
		t.Fatalf("after the failed hedge: %+v, want 3 attempts (one healthy call before), 1 hedge, 0 failures", st)
	}
	if _, _, active := timers.counts(); active != 0 {
		t.Fatalf("%d timers outlived the call", active)
	}
}

// TestCallerGoneEndsTheWait: with both attempts stuck, the caller's
// context ending releases the inline primary and the hedge at once.
func TestCallerGoneEndsTheWait(t *testing.T) {
	c, timers, in, base := hedgeFixture(t, 2)
	in.Enable()
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	v := c.NewView(ctx)
	done := make(chan struct{})
	go func() { v.HasIDs(shardSubject(0, 2), 1, 1); close(done) }()
	waitInjected(t, in, "shard.query.0", 1)
	timers.fireActive(t)
	waitInjected(t, in, "shard.query.0", 2)
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
	if v.HasIDs(shardSubject(0, 2), 1, 1) {
		t.Fatal("crashed owner answered true")
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
	op := shardOp{opHas, [3]store.ID{sid, 1, 1}}
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
	// Through a session: the first probe of an entity reads, the rest
	// are answered from the session without a shard call.
	ent, class := v.TermsView()[sid-1], rdf.Ont("Person")
	sess := sparql.NewViewSession(v)
	sess.InstanceOf(ent, class)
	attempts := c.Stats()[0].Attempts
	if n := testing.AllocsPerRun(1000, func() { sess.InstanceOf(ent, class) }); n > 0 {
		t.Errorf("repeated InstanceOf: %.1f allocs, want 0", n)
	}
	if got := c.Stats()[0].Attempts; got != attempts {
		t.Errorf("repeated InstanceOf made %d shard calls, want none", got-attempts)
	}
}
