// Package chaos is the project's deterministic fault-injection
// harness: named fault points at pipeline stage boundaries, WAL
// manager operations and shard read attempts draw from a seeded
// random source and inject latency, typed errors or panics according
// to a configured rule set.
//
// The harness exists to move the discipline PR 6 established at the
// filesystem layer (internal/wal/faultfs) up into the serving stack:
// the chaos soak test replays mixed question/update/batch workloads
// with faults firing at every layer boundary and asserts the
// resilience invariants — no goroutine leaks, acknowledged commits
// durable, recovery to healthy once faults stop, cached reads
// available throughout overload.
//
// # Fault points
//
// A fault point is a named call site: code under test calls
// Injector.Hit("wal.append") (or, on request paths where the injector
// travels in the context, chaos.HitCtx(ctx, "stage.answer")) and acts
// on the returned error. Hit is nil-receiver-safe and O(1) when
// disabled, so production code keeps its fault points unconditionally.
// The registered points are the points table; ParseSpec refuses a rule
// that matches none of them:
//
//	stage.<name>     every pipeline stage boundary (internal/core):
//	                 stage.triplex, stage.propmap, stage.answer — the
//	                 answer-cache lookup runs in front of the pipeline
//	                 and has no fault point
//	wal.apply        Manager.Apply entry, before the log append
//	wal.append       logFile.append, before any byte is written
//	wal.compact      compactLocked entry, before the segment write
//	shard.query.<n>  every read attempt on shard n (internal/shard)
//
// Every WAL fault point sits strictly before the operation's first
// mutation. On the commit path (wal.apply, wal.append) that means
// before any log byte — and so before the commit fsync — so an
// injected fault can only turn a commit into a clean, unacknowledged
// failure, never into a durable-but-unacknowledged record (the walfs
// qalint analyzer machine-checks that ordering; see INVARIANTS.md).
// wal.compact only ever fails the checkpoint, which is best-effort at
// every call site: the fsynced log still proves every committed batch.
//
// # Determinism
//
// All randomness comes from one seeded math/rand source guarded by the
// injector's mutex: a fixed seed and a fixed call sequence reproduce
// the exact same injection decisions. Concurrent callers serialise on
// the mutex, so per-goroutine sequences depend on scheduling — the
// soak test asserts invariants, not exact fault placements, and unit
// tests drive the injector sequentially.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// KindLatency sleeps for the rule's duration, then lets the
	// operation proceed.
	KindLatency Kind = iota
	// KindError makes the fault point return an *InjectedError.
	KindError
	// KindPanic makes the fault point panic with an *InjectedPanic
	// value (the pipeline's stage-boundary recovery turns it into a
	// typed error; anything unrecovered is a test failure by design).
	KindPanic
)

// String names the kind (used in metrics labels and specs).
func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	default:
		return "unknown"
	}
}

// InjectedError is the error a KindError rule returns from its fault
// point. Callers that must distinguish injected faults from organic
// ones (the soak test's bookkeeping) use errors.As.
type InjectedError struct{ Point string }

func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected error at %s", e.Point)
}

// InjectedPanic is the value a KindPanic rule panics with.
type InjectedPanic struct{ Point string }

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("chaos: injected panic at %s", p.Point)
}

// points is the table of registered fault points. "<n>" stands for a
// shard index.
var points = []string{
	"stage.triplex", "stage.propmap", "stage.answer",
	"wal.apply", "wal.append", "wal.compact",
	"shard.query.<n>",
}

// registered reports whether a rule for point — a name, or a prefix
// ending in '*' — matches a point of the points table.
func registered(point string) bool {
	prefix, isPrefix := strings.CutSuffix(point, "*")
	for _, p := range points {
		stem, indexed := strings.CutSuffix(p, "<n>")
		if isPrefix && strings.HasPrefix(stem, prefix) {
			return true // the prefix ends inside the name
		}
		n, ok := strings.CutPrefix(prefix, stem)
		if ok && (!indexed && n == "" || indexed && isIndex(n)) {
			return true
		}
	}
	return false
}

// isIndex reports whether n is a shard index as its point writes it.
func isIndex(n string) bool {
	i, err := strconv.Atoi(n)
	return err == nil && i >= 0 && strconv.Itoa(i) == n
}

// Rule arms one fault point (or point prefix) with one fault kind.
type Rule struct {
	// Point is the fault point name the rule matches. A trailing '*'
	// matches any point with the prefix ("stage.*").
	Point string
	// Kind is the fault to inject when the rule fires.
	Kind Kind
	// Prob is the per-hit firing probability in [0, 1].
	Prob float64
	// Latency is the injected delay for KindLatency rules.
	Latency time.Duration
	// Limit caps the number of times the rule fires (0 = unlimited).
	Limit int
}

func (r Rule) matches(point string) bool {
	if strings.HasSuffix(r.Point, "*") {
		return strings.HasPrefix(point, strings.TrimSuffix(r.Point, "*"))
	}
	return r.Point == point
}

// Injection is one row of the injector's cumulative counts.
type Injection struct {
	Point string
	Kind  Kind
	Count uint64
}

// Injector owns a rule set and a seeded random source. The zero value
// and the nil pointer are inert (Hit returns nil); build a live one
// with New. Safe for concurrent use.
type Injector struct {
	enabled atomic.Bool
	sleep   func(time.Duration) // WithSleep's stand-in for really waiting; nil = wait

	mu     sync.Mutex
	rng    *rand.Rand         // guarded by mu
	rules  []Rule             // guarded by mu
	fired  []int              // per-rule fire count, for Limit; guarded by mu
	counts map[string]*uint64 // "point\x00kind" -> count; guarded by mu
}

// New builds an enabled injector over a seeded random source.
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		rules:  rules,
		fired:  make([]int, len(rules)),
		counts: map[string]*uint64{},
	}
	in.enabled.Store(true)
	return in
}

// Enable re-arms a disabled injector.
//
//qalint:ignore unusedexport the fault tests of wal, shard and qaserve re-arm an injector they handed to the code under test; no _test.go file of chaos reaches them.
func (in *Injector) Enable() {
	if in != nil {
		in.enabled.Store(true)
	}
}

// Disable stops all injection — the "faults stop" transition the soak
// test drives; the server must return to healthy from here.
//
//qalint:ignore unusedexport the faults-stop switch the fault tests of wal, shard and qaserve flip; no _test.go file of chaos reaches them.
func (in *Injector) Disable() {
	if in != nil {
		in.enabled.Store(false)
	}
}

// Hit evaluates the rule set at a named fault point. It returns the
// injected error for KindError rules, panics for KindPanic rules,
// sleeps and returns nil for KindLatency rules, and returns nil — in
// O(1), without touching the mutex — on a nil, disabled or non-matching
// injector.
func (in *Injector) Hit(point string) error {
	if in == nil || !in.enabled.Load() {
		return nil
	}
	kind, latency, fired := in.draw(point)
	if !fired {
		return nil
	}
	if kind != KindLatency {
		return fault(kind, point)
	}
	if in.sleep != nil {
		in.sleep(latency)
	} else {
		time.Sleep(latency)
	}
	return nil
}

// draw makes the seeded firing decision for one visit of point by an
// enabled injector and counts the injection; acting on it is the
// caller's.
func (in *Injector) draw(point string) (kind Kind, latency time.Duration, fired bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, r := range in.rules {
		if !r.matches(point) || (r.Limit > 0 && in.fired[i] >= r.Limit) {
			continue
		}
		if in.rng.Float64() >= r.Prob {
			continue
		}
		in.fired[i]++
		key := point + "\x00" + r.Kind.String()
		c := in.counts[key]
		if c == nil {
			c = new(uint64)
			in.counts[key] = c
		}
		*c++
		// first matching rule wins; later rules stay deterministic via the draw above
		return r.Kind, r.Latency, true
	}
	return 0, 0, false
}

// fault delivers a fired KindError or KindPanic rule.
func fault(kind Kind, point string) error {
	if kind == KindError {
		return &InjectedError{Point: point}
	}
	panic(&InjectedPanic{Point: point})
}

// Snapshot returns the cumulative injection counts, sorted by point
// then kind (the qaserve /metrics endpoint renders these).
func (in *Injector) Snapshot() []Injection {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	out := make([]Injection, 0, len(in.counts))
	for key, c := range in.counts {
		point, kindName, _ := strings.Cut(key, "\x00")
		var k Kind
		switch kindName {
		case "error":
			k = KindError
		case "panic":
			k = KindPanic
		default:
			k = KindLatency
		}
		out = append(out, Injection{Point: point, Kind: k, Count: *c})
	}
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Point != out[j].Point {
			return out[i].Point < out[j].Point
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// ctxKey carries an injector in a request context.
type ctxKey struct{}

// With returns a context carrying the injector; request paths
// (qaserve) attach it once and every fault point below reads it with
// HitCtx. A nil injector returns ctx unchanged.
func With(ctx context.Context, in *Injector) context.Context {
	if in == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, in)
}

// FromContext returns the context's injector (nil when none is
// attached — the common production case).
func FromContext(ctx context.Context) *Injector {
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

// HitCtx evaluates the context's injector (if any) at a fault point.
// Unlike Hit, an injected latency also ends when ctx does, returning
// ctx.Err(): a request that was cancelled — or a shard attempt that
// timed out — is not held for the rest of the delay. The
// injection is drawn and counted before the wait either way, so a seed
// replays the same counts. An injected sleeper (WithSleep) does not
// really wait and so has nothing to cut short.
func HitCtx(ctx context.Context, point string) error {
	in := FromContext(ctx)
	if in == nil || !in.enabled.Load() {
		return nil // small enough to inline: the production path of every fault point
	}
	return in.hitCtx(ctx, point)
}

func (in *Injector) hitCtx(ctx context.Context, point string) error {
	kind, latency, fired := in.draw(point)
	if !fired {
		return nil
	}
	if kind != KindLatency {
		return fault(kind, point)
	}
	if in.sleep != nil {
		in.sleep(latency)
		return nil
	}
	t := time.NewTimer(latency)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ParseSpec parses a comma-separated rule list of the form
//
//	point:kind:prob[:latency[:limit]]
//
// e.g. "stage.answer:error:0.2,wal.append:latency:1:5ms,stage.*:panic:0.01::3".
// kind is latency|error|panic; prob is a float in [0,1]; latency (for
// latency rules) is a Go duration; limit caps the rule's firings. A
// point, or a '*' prefix, that matches no registered point is an
// error: such a rule would never fire.
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 || len(fields) > 5 {
			return nil, fmt.Errorf("chaos: rule %q: want point:kind:prob[:latency[:limit]]", part)
		}
		if !registered(fields[0]) {
			return nil, fmt.Errorf("chaos: rule %q: no fault point %q (registered: %s)", part, fields[0], strings.Join(points, ", "))
		}
		r := Rule{Point: fields[0]}
		switch fields[1] {
		case "latency":
			r.Kind = KindLatency
		case "error":
			r.Kind = KindError
		case "panic":
			r.Kind = KindPanic
		default:
			return nil, fmt.Errorf("chaos: rule %q: unknown kind %q (want latency|error|panic)", part, fields[1])
		}
		prob, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("chaos: rule %q: probability must be a float in [0,1]", part)
		}
		r.Prob = prob
		if len(fields) >= 4 && fields[3] != "" {
			d, err := time.ParseDuration(fields[3])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("chaos: rule %q: bad latency %q", part, fields[3])
			}
			r.Latency = d
		}
		if len(fields) == 5 && fields[4] != "" {
			n, err := strconv.Atoi(fields[4])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("chaos: rule %q: bad limit %q", part, fields[4])
			}
			r.Limit = n
		}
		if r.Kind == KindLatency && r.Latency == 0 {
			return nil, fmt.Errorf("chaos: rule %q: latency rules need a duration", part)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("chaos: empty spec")
	}
	return rules, nil
}
