// The per-shard failure domain: every triple-data read of a shard
// crosses exactly one domain.run call, which makes one attempt at a
// time. A healthy call costs the read plus one timer arm/stop — no
// goroutine, channel, derived context or allocation. Inside out:
//
//   - the attempt (domain.attempt), under a recover() net (a
//     chaos-injected shard panic becomes an attempt error, not a
//     process crash) and the chaos point shard.query.<i>. It runs on
//     the caller's goroutine;
//   - one injected timer per attempt (Config.AfterFunc), stopped when
//     the attempt returns. It fires only at the per-attempt timeout —
//     min(AttemptTimeout, remaining request deadline), so retries
//     never outspend the caller's X-Request-Budget — and ends the
//     attempt's context: the attempt's context is the call itself,
//     which is how the timer's goroutine releases an attempt running
//     inline. So every wait inside an attempt must end when its ctx
//     does (chaos.HitCtx; ops.go polls ctx.Err);
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
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/store"
)

// domain is one shard's failure domain: breaker, retry state and
// metrics.
type domain struct {
	i     int // shard index, for chaos points and error text
	cfg   Config
	br    *breaker
	m     shardMetrics
	point string    // chaos point name, "shard.query.<i>"
	calls sync.Pool // *call, each with its stopped timer, for reuse by healthy calls

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu
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
func (d *domain) run(ctx context.Context, sn *store.Snapshot, op shardOp) ([]store.ID, error) {
	now := d.cfg.Now()
	if !d.br.allow(now) {
		d.m.breakerRejects.Add(1)
		return nil, fmt.Errorf("shard %d: circuit breaker open", d.i)
	}
	res, err := d.attempts(ctx, sn, op, now)
	if err != nil {
		d.m.failures.Add(1)
		d.br.failure(d.cfg.Now())
		return nil, err
	}
	d.br.success()
	return res, nil
}

// attempts runs the retry ladder from time now: up to MaxAttempts
// timed attempts separated by capped exponential backoff with equal
// jitter.
func (d *domain) attempts(ctx context.Context, sn *store.Snapshot, op shardOp, now time.Time) ([]store.ID, error) {
	backoff := d.cfg.BaseBackoff
	var lastErr error
	for a := 0; a < d.cfg.MaxAttempts; a++ {
		if a > 0 {
			d.m.retries.Add(1)
			if err := d.sleep(ctx, d.jitter(backoff)); err != nil {
				return nil, err
			}
			backoff *= 2
			if backoff > d.cfg.MaxBackoff {
				backoff = d.cfg.MaxBackoff
			}
			now = d.cfg.Now()
		}
		res, err := d.timedAttempt(ctx, sn, op, now)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the request is gone; stop burning attempts
		}
	}
	return nil, lastErr
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

// call is the state of one attempt, and the attempt's context:
// Deadline and Value are the caller's, cancellation is the caller's or
// the timeout's. The cancellable half is built on first use, which
// keeps the healthy path free of it. A call whose timer never fired is
// recycled through domain.calls; one whose timer fired is left to
// whoever still holds it.
type call struct {
	context.Context // the caller's
	d               *domain
	timer           Timer         // fires into c.fire at the timeout
	timeout         time.Duration // the attempt's budget; set under mu, read by fire

	mu   sync.Mutex
	err  error              // the timeout, once the timer has fired; guarded by mu
	done context.Context    // cancellable child of Context, made by the first Done; guarded by mu
	stop context.CancelFunc // cancels done; guarded by mu
}

// Done implements context.Context.
func (c *call) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done, c.stop = context.WithCancel(c.Context)
		if c.err != nil {
			c.stop()
		}
	}
	return c.done.Done()
}

// Err implements context.Context: the timeout first.
func (c *call) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return c.Context.Err()
}

// fire is the timer's function: the attempt has timed out, and its
// context ends, which releases the attempt running inline.
func (c *call) fire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.err = fmt.Errorf("shard %d: attempt timed out after %v", c.d.i, c.timeout)
	if c.stop != nil {
		c.stop()
	}
}

// timedAttempt runs one attempt, starting now, inline under the
// per-attempt timeout: min(AttemptTimeout, remaining request deadline).
func (d *domain) timedAttempt(ctx context.Context, sn *store.Snapshot, op shardOp, start time.Time) ([]store.ID, error) {
	timeout := d.cfg.AttemptTimeout
	if dl, ok := ctx.Deadline(); ok {
		rem := dl.Sub(start)
		if rem <= 0 {
			return nil, context.DeadlineExceeded
		}
		if rem < timeout {
			timeout = rem
		}
	}
	c, _ := d.calls.Get().(*call)
	if c == nil {
		c = &call{d: d}
	}
	// Armed under c.mu, which fire takes first: a timer that fires at
	// once still sees the whole call.
	c.mu.Lock()
	c.Context, c.timeout = ctx, timeout
	if c.timer == nil {
		c.timer = d.cfg.AfterFunc(timeout, c.fire)
	} else {
		c.timer.Reset(timeout)
	}
	c.mu.Unlock()

	res, err := d.attempt(c, sn, op)

	stopped := c.timer.Stop()
	c.mu.Lock()
	if c.stop != nil {
		c.stop() // detaches done from the caller's context
	}
	recycle := stopped && c.done == nil
	c.mu.Unlock()
	if recycle {
		// The timer never fired and no Done was built: nothing else holds c.
		c.Context = nil
		d.calls.Put(c)
	}
	return res, err
}

// attempt runs op once. The recover net converts a chaos-injected
// shard panic into an attempt error so one crashing shard degrades,
// never crashes, the coordinator.
func (d *domain) attempt(ctx context.Context, sn *store.Snapshot, op shardOp) (res []store.ID, err error) {
	d.m.attempts.Add(1)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("shard %d: attempt crashed: %v", d.i, r)
		}
	}()
	if err := chaos.HitCtx(ctx, d.point); err != nil {
		return nil, err
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
