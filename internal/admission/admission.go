// Package admission implements the serving layer's adaptive
// concurrency control: an AIMD (additive-increase /
// multiplicative-decrease) limiter driven by observed request latency,
// with priority-aware shedding.
//
// # Why AIMD over a static cap
//
// qaserve's original MaxInFlight was a fixed semaphore: set it low and
// the server idles under light questions, set it high and a burst of
// expensive fan-outs queues every request behind saturated CPU until
// deadlines kill them mid-flight. The limiter instead discovers the
// sustainable concurrency: every completed request reports its
// latency, an exponentially-weighted moving average smooths the
// signal, and the limit grows additively (+1/limit per sample, the
// classic one-per-window rule) while latency sits below the target and
// shrinks multiplicatively (×0.75, at most once per second) when the
// average crosses it. The limit is clamped to [Min, Max]. A release
// that reports no latency (a negative one) returns the slot and leaves
// the limit alone.
//
// # Priority shedding
//
// Overload should shed the cheapest-to-retry work first. Each Acquire
// carries a Priority, and the effective admission threshold tilts
// around the limit L with a reserve R = max(1, L/4):
//
//	Batch    admitted while inflight < L − R   (sheds first)
//	Normal   admitted while inflight < L
//	Cached   admitted while inflight < L + R   (sheds last)
//
// Cache-hit-eligible requests cost microseconds and no fan-out, so
// they ride a reserve above the limit: during overload the cache keeps
// answering — the soak test's "cached reads stay available" invariant
// — while batch work, which callers retry wholesale, is the first to
// receive 503s. Every rejection carries a Retry-After hint.
//
// # Clock
//
// The one-second decrease cooldown reads an injected clock
// (Options.Now), following the project's clockinject invariant: the
// package never calls time.Now itself, so tests drive the cooldown
// deterministically. With no clock configured the cooldown is disabled
// and the EWMA alone damps repeated decreases.
package admission

import (
	"sync"
	"time"
)

// Priority orders shedding: lower sheds first.
type Priority uint8

const (
	// Batch is fan-in work (the /batch endpoint): cheapest to retry,
	// first to shed.
	Batch Priority = iota
	// Normal is a single interactive question.
	Normal
	// Cached marks a request the answer cache can serve (a probe of the
	// cache found a live entry): it bypasses the fan-out entirely and is
	// admitted up to a reserve above the limit.
	Cached
)

// String names the priority (metrics labels).
func (p Priority) String() string {
	switch p {
	case Batch:
		return "batch"
	case Normal:
		return "normal"
	default:
		return "cached"
	}
}

// Options configures a Limiter.
type Options struct {
	// Initial is the starting concurrency limit. Defaults to 64.
	Initial int
	// Min and Max clamp the adaptive limit. Defaults: 1 and 4×Initial.
	Min, Max int
	// Target is the latency the limiter steers the EWMA toward.
	// Defaults to 500ms.
	Target time.Duration
	// Now is the injected clock for the decrease cooldown; nil disables
	// the cooldown. The package never calls time.Now itself
	// (clockinject invariant).
	Now func() time.Time
}

// Limiter is a priority-aware adaptive concurrency limiter. Safe for
// concurrent use.
type Limiter struct {
	opts Options

	mu           sync.Mutex
	limit        float64   // current concurrency limit; guarded by mu
	inflight     int       // admitted, not yet released; guarded by mu
	ewma         float64   // smoothed latency in nanoseconds, 0 until first sample; guarded by mu
	lastDecrease time.Time // last multiplicative decrease (zero until one happens); guarded by mu
	shed         [3]uint64 // rejections by priority; guarded by mu
}

// ewmaAlpha weights the newest latency sample; decreaseFactor is the
// multiplicative backoff applied when the EWMA crosses the target, at
// most once per decreaseCooldown.
const (
	ewmaAlpha        = 0.2
	decreaseFactor   = 0.75
	decreaseCooldown = time.Second
)

// New builds a limiter; see Options for defaults.
func New(opts Options) *Limiter {
	if opts.Initial <= 0 {
		opts.Initial = 64
	}
	if opts.Min <= 0 {
		opts.Min = 1
	}
	if opts.Max <= 0 {
		opts.Max = 4 * opts.Initial
	}
	if opts.Max < opts.Min {
		opts.Max = opts.Min
	}
	if opts.Target <= 0 {
		opts.Target = 500 * time.Millisecond
	}
	return &Limiter{opts: opts, limit: float64(opts.Initial)}
}

// threshold returns the admission bound for a priority under the
// current limit (see the package comment's table). Callers hold mu.
func (l *Limiter) threshold(p Priority) float64 {
	reserve := l.limit / 4
	if reserve < 1 {
		reserve = 1
	}
	switch p {
	case Cached:
		return l.limit + reserve
	case Batch:
		return l.limit - reserve
	default:
		return l.limit
	}
}

// Acquire admits or rejects one request at the given priority. An
// admitted request holds one in-flight slot until Release; a rejected
// one must not call Release.
func (l *Limiter) Acquire(p Priority) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if float64(l.inflight) >= l.threshold(p) {
		l.shed[p]++
		return false
	}
	l.inflight++
	return true
}

// Release returns an admitted request's slot and feeds its observed
// latency to the AIMD controller; a negative latency returns the slot
// only.
func (l *Limiter) Release(latency time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight > 0 {
		l.inflight--
	}
	if latency < 0 {
		return
	}
	sample := float64(latency)
	if l.ewma == 0 {
		l.ewma = sample
	} else {
		l.ewma = ewmaAlpha*sample + (1-ewmaAlpha)*l.ewma
	}
	target := float64(l.opts.Target)
	switch {
	case l.ewma > target:
		if l.opts.Now != nil {
			now := l.opts.Now()
			if !l.lastDecrease.IsZero() && now.Sub(l.lastDecrease) < decreaseCooldown {
				return
			}
			l.lastDecrease = now
		}
		l.limit *= decreaseFactor
	case l.ewma < target*0.9:
		// Additive increase: +1 per limit's worth of samples, so the
		// limit grows by about one slot per "round trip" of concurrent
		// work, like TCP's congestion window.
		l.limit += 1 / l.limit
	}
	if l.limit < float64(l.opts.Min) {
		l.limit = float64(l.opts.Min)
	}
	if l.limit > float64(l.opts.Max) {
		l.limit = float64(l.opts.Max)
	}
}

// Limit returns the current concurrency limit, rounded down.
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.limit)
}

// InFlight returns the number of admitted, unreleased requests.
func (l *Limiter) InFlight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// Shed returns the cumulative rejection counts by priority
// (batch, normal, cached).
func (l *Limiter) Shed() (batch, normal, cached uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shed[Batch], l.shed[Normal], l.shed[Cached]
}

// RetryAfter returns the Retry-After hint, in seconds, for a rejection
// at the given priority: batch work backs off longer (it is shed
// first and retried wholesale), interactive and cached requests retry
// quickly.
func RetryAfter(p Priority) int {
	if p == Batch {
		return 2
	}
	return 1
}
