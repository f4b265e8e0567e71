// The per-shard failure domain: every triple-data read of a shard
// crosses exactly one domain.run call. The design is "inline primary,
// lazily armed hedge": a healthy call costs the read plus one timer
// arm/stop — no goroutine, channel, derived context or allocation —
// and what a slow or failing shard needs is built when the timer
// fires. Inside out:
//
//   - the attempt (domain.attempt), under a recover() net (a
//     chaos-injected shard panic becomes an attempt error, not a
//     process crash) and the chaos points shard.query.<i> (every
//     attempt) and shard.hedge (hedges only). The primary runs on the
//     caller's goroutine;
//   - one injected timer per call (Config.AfterFunc), stopped when the
//     primary returns. It first fires after the shard's observed p95
//     latency (a ring of the last 64 call latencies, re-read every
//     p95Every observations; Config.HedgeDelay until then; floored at
//     MinHedgeDelay so microsecond in-process scans do not hedge every
//     call): its goroutine runs a hedged second attempt and re-arms
//     the timer for the rest of the per-attempt timeout —
//     min(AttemptTimeout, remaining request deadline), so retries and
//     hedges never outspend the caller's X-Request-Budget. The first
//     result wins and cancels the loser through its context; the
//     primary's context is the call itself, which is how the timer's
//     goroutine releases a primary running inline. The second firing
//     is the timeout and cancels both. So every wait inside an attempt
//     must end when its ctx does (chaos.HitCtx; ops.go polls ctx.Err);
//   - capped exponential backoff with equal jitter between attempts
//     (MaxAttempts total), waited out on the same injected timers;
//   - the circuit breaker (breaker.go) around the whole ladder: only
//     the final outcome of a run counts toward the consecutive-failure
//     trip, and an open breaker rejects the run before any attempt.
//
// Every duration read goes through cfg.Now/cfg.AfterFunc (the
// clockinject invariant) and every random draw through a per-domain
// seeded RNG, so a chaos soak replays identically from its seed.

package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/store"
)

// latencyRing is how many recent call latencies feed the adaptive
// hedge delay.
const latencyRing = 64

// p95Every is how many observations pass between re-reads of the
// ring's p95; Config.HedgeDelay applies until the first.
const p95Every = 32

// errHedgeWon cancels an inline primary whose hedge has answered.
var errHedgeWon = errors.New("shard: hedged attempt won")

// domain is one shard's failure domain: breaker, retry/hedge state
// and metrics.
type domain struct {
	i     int // shard index, for chaos points and error text
	cfg   Config
	br    *breaker
	m     shardMetrics
	point string    // chaos point name, "shard.query.<i>"
	calls sync.Pool // *call, each with its stopped timer, for reuse by healthy calls

	p95 atomic.Int64 // hedge delay read off the ring, floored; 0 = too few samples

	mu    sync.Mutex
	rng   *rand.Rand                 // guarded by mu
	ring  [latencyRing]time.Duration // guarded by mu
	ringN int                        // total latencies ever observed; guarded by mu
}

func newDomain(i int, cfg Config) *domain {
	return &domain{
		i:     i,
		cfg:   cfg,
		br:    newBreaker(cfg),
		point: "shard.query." + strconv.Itoa(i),
		rng:   rand.New(rand.NewSource(cfg.Seed + int64(i))),
	}
}

// run executes op against sn through the full failure domain and
// reports the final outcome to the breaker.
func (d *domain) run(ctx context.Context, sn *store.Snapshot, op shardOp) (opResult, error) {
	now := d.cfg.Now()
	if !d.br.allow(now) {
		d.m.breakerRejects.Add(1)
		return opResult{}, fmt.Errorf("shard %d: circuit breaker open", d.i)
	}
	res, err := d.attempts(ctx, sn, op, now)
	if err != nil {
		d.m.failures.Add(1)
		d.br.failure(d.cfg.Now())
		return opResult{}, err
	}
	d.br.success()
	return res, nil
}

// attempts runs the retry ladder from time now: up to MaxAttempts
// hedged attempts separated by capped exponential backoff with equal
// jitter.
func (d *domain) attempts(ctx context.Context, sn *store.Snapshot, op shardOp, now time.Time) (opResult, error) {
	backoff := d.cfg.BaseBackoff
	var lastErr error
	for a := 0; a < d.cfg.MaxAttempts; a++ {
		if a > 0 {
			d.m.retries.Add(1)
			if err := d.sleep(ctx, d.jitter(backoff)); err != nil {
				return opResult{}, err
			}
			backoff *= 2
			if backoff > d.cfg.MaxBackoff {
				backoff = d.cfg.MaxBackoff
			}
			now = d.cfg.Now()
		}
		res, err := d.hedgedAttempt(ctx, sn, op, now)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the request is gone; stop burning attempts
		}
	}
	return opResult{}, lastErr
}

// sleep waits out one backoff on the injected timer, or until the
// request is gone.
func (d *domain) sleep(ctx context.Context, wait time.Duration) error {
	woke := make(chan struct{})
	t := d.cfg.AfterFunc(wait, func() { close(woke) })
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-woke:
		return nil
	}
}

// call is the state of one hedged attempt, and the primary's context:
// Deadline and Value are the caller's, cancellation is the caller's or
// the call's own (decided: a hedge answered, or the timeout passed).
// The cancellable half is built on first use, which keeps the healthy
// path free of it. A call whose timer never fired is recycled through
// domain.calls; one whose timer fired is left to whoever still holds it.
type call struct {
	context.Context // the caller's
	d               *domain
	sn              *store.Snapshot
	op              shardOp
	timer           Timer         // fires into c.fire
	timeout         time.Duration // the whole pair's budget
	rearm           time.Duration // timeout left at the hedge point; ≤ 0: no room for a hedge

	mu            sync.Mutex
	hedged        bool               // the hedged attempt has been started; guarded by mu
	primaryFailed bool               // the primary failed and left the decision to the hedge; guarded by mu
	hedgeFailed   bool               // the hedge failed and left it to the primary; guarded by mu
	decided       bool               // res and err are the pair's outcome, both attempts are cancelled; guarded by mu
	res           opResult           // guarded by mu
	err           error              // guarded by mu
	done          context.Context    // cancellable child of Context, made by the first Done; guarded by mu
	stop          context.CancelFunc // cancels done; guarded by mu
	hcancel       context.CancelFunc // cancels the hedge; guarded by mu
}

// Done implements context.Context.
func (c *call) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done, c.stop = context.WithCancel(c.Context)
		if c.decided {
			c.stop()
		}
	}
	return c.done.Done()
}

// Err implements context.Context: the call's own cause first.
func (c *call) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.err != nil:
		return c.err
	case c.decided:
		return errHedgeWon
	}
	return c.Context.Err()
}

// decide makes (res, err) the pair's outcome unless it already has
// one, and cancels whichever attempts are still running. Caller holds
// c.mu.
func (c *call) decide(res opResult, err error) {
	if c.decided {
		return
	}
	c.decided, c.res, c.err = true, res, err
	if c.stop != nil {
		c.stop()
	}
	if c.hcancel != nil {
		c.hcancel()
	}
}

// fire is the timer's function. Its first run, hedgeDelay after the
// primary started, runs the hedged attempt on the timer's goroutine
// and re-arms the timer with what is left of the timeout; the second
// run (the first, when the timeout is not longer than the hedge delay)
// is the timeout.
func (c *call) fire() {
	c.mu.Lock()
	if c.decided || c.hedged || c.rearm <= 0 {
		c.decide(opResult{}, fmt.Errorf("shard %d: attempt timed out after %v", c.d.i, c.timeout))
		c.mu.Unlock()
		return
	}
	c.hedged = true
	hctx, hcancel := context.WithCancel(c.Context)
	c.hcancel = hcancel
	c.timer.Reset(c.rearm)
	sn, op := c.sn, c.op
	c.mu.Unlock()

	c.d.m.hedges.Add(1)
	res, err := c.d.attempt(hctx, sn, op, true)
	c.mu.Lock()
	if err == nil || c.primaryFailed {
		c.decide(res, err)
	}
	c.hedgeFailed = err != nil
	c.mu.Unlock()
}

// hedgedAttempt runs one attempt, starting now, with a hedged backup:
// the primary runs inline; if it is still running after hedgeDelay,
// the call's timer starts a second identical attempt and the first
// successful result wins (the loser's context is cancelled). The whole
// pair shares one per-attempt timeout derived from the remaining
// request deadline.
func (d *domain) hedgedAttempt(ctx context.Context, sn *store.Snapshot, op shardOp, start time.Time) (opResult, error) {
	timeout := d.cfg.AttemptTimeout
	if dl, ok := ctx.Deadline(); ok {
		rem := dl.Sub(start)
		if rem <= 0 {
			return opResult{}, context.DeadlineExceeded
		}
		if rem < timeout {
			timeout = rem
		}
	}
	c, _ := d.calls.Get().(*call)
	if c == nil {
		c = &call{d: d}
	}
	delay := d.hedgeDelay()
	first := min(delay, timeout) // the hedge point, or already the timeout
	// Armed under c.mu, which fire takes first: a timer that fires at
	// once still sees the whole call, c.timer included.
	c.mu.Lock()
	c.Context, c.sn, c.op, c.timeout, c.rearm = ctx, sn, op, timeout, timeout-delay
	if c.timer == nil {
		c.timer = d.cfg.AfterFunc(first, c.fire)
	} else {
		c.timer.Reset(first)
	}
	c.mu.Unlock()

	res, err := d.attempt(c, sn, op, false)

	c.mu.Lock()
	if !c.hedged && !c.decided && c.done == nil && c.timer.Stop() {
		// Healthy: the timer never fired, so nothing else holds c.
		c.Context, c.sn = nil, nil
		c.mu.Unlock()
		d.calls.Put(c)
	} else {
		// The timer fired (it may not have got as far as taking c.mu).
		// The primary decides unless it failed with the hedge still out;
		// then the hedge does, or the timeout, or the caller going away.
		if err == nil || !c.hedged || c.hedgeFailed {
			c.decide(res, err)
		}
		c.primaryFailed = err != nil
		wait := !c.decided
		c.mu.Unlock()
		if wait {
			<-c.Done()
		}
		c.mu.Lock()
		c.decide(opResult{}, c.Context.Err())
		res, err = c.res, c.err
		c.mu.Unlock()
		c.timer.Stop()
	}
	if err == nil {
		d.observe(d.cfg.Now().Sub(start))
	}
	return res, err
}

// attempt runs op once. The recover net converts a chaos-injected
// shard panic into an attempt error so one crashing shard degrades,
// never crashes, the coordinator.
func (d *domain) attempt(ctx context.Context, sn *store.Snapshot, op shardOp, hedge bool) (res opResult, err error) {
	d.m.attempts.Add(1)
	defer func() {
		if r := recover(); r != nil {
			res, err = opResult{}, fmt.Errorf("shard %d: attempt crashed: %v", d.i, r)
		}
	}()
	if err := chaos.HitCtx(ctx, d.point); err != nil {
		return opResult{}, err
	}
	if hedge {
		if err := chaos.HitCtx(ctx, "shard.hedge"); err != nil {
			return opResult{}, err
		}
	}
	return op.exec(ctx, sn)
}

// jitter draws the equal-jitter backoff: uniform in [b/2, b).
func (d *domain) jitter(b time.Duration) time.Duration {
	if b <= 1 {
		return b
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	half := b / 2
	return half + time.Duration(d.rng.Int63n(int64(half)))
}

// observe records a successful call latency in the ring and, every
// p95Every observations, re-reads the hedge delay off it.
func (d *domain) observe(lat time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ring[d.ringN%latencyRing] = lat
	d.ringN++
	if d.ringN%p95Every != 0 {
		return
	}
	sorted := d.ring // a copy: the ring itself stays in arrival order
	n := min(d.ringN, latencyRing)
	slices.Sort(sorted[:n])
	d.p95.Store(int64(max(sorted[(n*95)/100], d.cfg.MinHedgeDelay)))
}

// hedgeDelay returns the adaptive hedging delay: the p95 of the
// latency ring as of its last re-read, floored at MinHedgeDelay;
// Config.HedgeDelay before the first.
func (d *domain) hedgeDelay() time.Duration {
	if p := d.p95.Load(); p > 0 {
		return time.Duration(p)
	}
	return d.cfg.HedgeDelay
}
