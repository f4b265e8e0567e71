// Package shard is the fault-tolerant scatter-gather tier: it
// partitions the knowledge base by subject across N in-process shards
// and answers queries by scattering only the triple-data reads to the
// shards, gathering their sorted-ID partials back into the exact
// stream a single store would have produced.
//
// # Partitioning
//
// Every shard is a full store.Store. The coordinator keeps the source
// store (the authoritative single-store image) and derives the shards
// from it, each in one write batch (store.Batch): a shard first interns
// the source's complete dictionary in ID order, so a term has the same
// dense dictionary ID on every shard and on the coordinator — ID tuples
// can cross shard boundaries without translation — and then adds, by
// ID, exactly the triples whose subject ID hashes to it (shardOf). Subject
// sets are therefore disjoint across shards, which is what makes
// gather merging deterministic: in every wildcard-subject scan order
// the store defines, triples from different shards can never tie.
//
// All dictionary, statistics and rank reads stay coordinator-local
// (the source snapshot), so query planning is byte-identical to the
// single-store plan regardless of N; only ForEachMatchIDs and
// PostingList fan out. See view.go for the gather view, ops.go for
// the per-shard read operations, domain.go for the failure domain
// every shard call crosses, and breaker.go for the per-shard circuit
// breaker.
//
// # Failure domains and partial answers
//
// Each shard call runs inline on its caller's goroutine, one attempt
// at a time, under a per-attempt timeout with capped exponential
// backoff retries and a per-shard circuit breaker. The chaos point
// shard.query.<i> makes every one of those paths drivable by the
// chaos injector. When a shard stays unavailable the request either
// fails fast (ErrUnavailable → 503) or, when the caller opted in via
// WithPartialOK, degrades: the live shards' data answers the question
// and the result is stamped degraded with shards_total /
// shards_answered. A degraded answer is
// exactly the answer a healthy cluster whose failed shards were empty
// would produce — the oracle the tests pin.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// ErrUnavailable is wrapped into every error the gather view surfaces
// when a shard could not be reached and the caller did not opt into
// partial answers. The serving tier maps it to 503 + Retry-After.
var ErrUnavailable = errors.New("shard unavailable")

// partialKey marks a request context as accepting degraded answers.
type partialKey struct{}

// WithPartialOK marks ctx as accepting a degraded partial answer:
// gather views created under it skip unavailable shards instead of
// failing the request. The serving tier sets it from the request's
// allow_partial field.
func WithPartialOK(ctx context.Context) context.Context {
	return context.WithValue(ctx, partialKey{}, true)
}

// PartialOK reports whether ctx opted into degraded partial answers.
func PartialOK(ctx context.Context) bool {
	ok, _ := ctx.Value(partialKey{}).(bool)
	return ok
}

// Config tunes the per-shard failure domain. The zero value gets
// production defaults from withDefaults; tests inject Now/AfterFunc
// (and a Seed) to drive every timer and jitter deterministically.
type Config struct {
	// AttemptTimeout bounds one shard attempt. The effective per-attempt
	// timeout is the smaller of this and the remaining request deadline,
	// so retries always respect the caller's budget.
	AttemptTimeout time.Duration
	// MaxAttempts is the total number of tries per shard call (first
	// attempt + retries), each separated by capped exponential backoff.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff; it doubles per retry up
	// to MaxBackoff, with equal jitter (uniform in [b/2, b)).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff growth.
	MaxBackoff time.Duration
	// BreakerThreshold is the number of consecutive failed shard calls
	// (retries exhausted) that trips the breaker open.
	BreakerThreshold int
	// BreakerCooldown is the open interval before the breaker admits a
	// half-open probe; it doubles on each failed probe up to
	// BreakerMaxCooldown and resets on success.
	BreakerCooldown    time.Duration
	BreakerMaxCooldown time.Duration
	// Seed seeds the backoff-jitter RNG (deterministic per shard:
	// shard i uses Seed+i).
	Seed int64
	// Now and AfterFunc inject the clock: deadlines and breaker
	// cooldowns read Now; timeout and backoff timers come from
	// AfterFunc, whose contract is time.AfterFunc's (f runs in its own
	// goroutine once d has passed, unless the timer is stopped first).
	Now       func() time.Time
	AfterFunc func(d time.Duration, f func()) Timer
}

// Timer is the stoppable, re-armable handle of one AfterFunc timer;
// *time.Timer is the production one.
type Timer interface {
	// Stop disarms the timer; true means this arming had not fired and
	// now never will.
	Stop() bool
	// Reset re-arms a stopped or fired timer to run f once more after d.
	Reset(d time.Duration) bool
}

// withDefaults fills unset fields with production defaults.
func withDefaults(cfg Config) Config {
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 250 * time.Millisecond
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 5 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 100 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 500 * time.Millisecond
	}
	if cfg.BreakerMaxCooldown <= 0 {
		cfg.BreakerMaxCooldown = 8 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Now == nil {
		//qalint:ignore clockinject the one construction point of the injected clock; every read below goes through cfg.Now/cfg.AfterFunc, tests swap both.
		cfg.Now = time.Now
	}
	if cfg.AfterFunc == nil {
		cfg.AfterFunc = func(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }
	}
	return cfg
}

// Cluster is the coordinator: the source store plus its N derived
// shards and their failure domains. Reads go through NewView; writes
// through ApplyBatch (which keeps source and shards in lockstep).
type Cluster struct {
	src *store.Store
	cfg Config

	mu      sync.RWMutex // guards shard membership during ApplyBatch
	shards  []*store.Store
	domains []*domain
}

// NewCluster partitions src's current contents across n shards and
// returns the coordinator. src stays authoritative: all dictionary
// and statistics reads serve from it, and later ApplyBatch calls
// mutate src first and mirror the routed subset to each shard.
func NewCluster(src *store.Store, n int, cfg Config) *Cluster {
	if n < 1 {
		n = 1
	}
	cfg = withDefaults(cfg)
	c := &Cluster{src: src, cfg: cfg}
	sn := src.Snapshot()
	terms := sn.TermsView()
	for i, part := range partitionTriples(sn, n) {
		sh := store.New()
		// Same dictionary, same IDs: intern the full source dictionary
		// in ID order before adding the shard's subject slice.
		sh.Batch(len(part), func(b *store.Batch) {
			internAll(b, terms)
			for _, t := range part {
				b.Add(t[0], t[1], t[2])
			}
		})
		c.shards = append(c.shards, sh)
		c.domains = append(c.domains, newDomain(i, cfg))
	}
	return c
}

// internAll interns terms in order.
func internAll(b *store.Batch, terms []rdf.Term) {
	for _, t := range terms {
		b.Intern(t)
	}
}

// N returns the number of shards.
func (c *Cluster) N() int { return len(c.shards) }

// shardOf routes a subject ID to its owning shard: a multiplicative
// hash over the dense dictionary ID, so consecutive IDs (which the
// loader assigns to related entities) spread instead of clustering.
func shardOf(sid store.ID, n int) int {
	h := uint64(sid) * 0x9E3779B97F4A7C15
	return int((h >> 33) % uint64(n))
}

// ApplyBatch applies one atomic write batch to the source store and
// mirrors each operation's subject-routed subset to every shard, all
// under the cluster write lock so no view can pin a half-mirrored
// state. Shards intern the source's dictionary growth first, keeping
// shard-local IDs aligned with the coordinator's.
func (c *Cluster) ApplyBatch(ops []store.BatchOp) (added, removed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.src.Snapshot().TermCount()
	added, removed = c.src.ApplyBatch(ops)
	after := c.src.Snapshot()
	terms := after.TermsView()
	n := len(c.shards)
	// Route each op's triples by (post-batch) subject ID. Per-shard op
	// order matches the source's op order, so delete-after-insert
	// within a batch nets out identically on every shard.
	routed := make([][]store.BatchOp, n)
	for _, op := range ops {
		perShard := make([][]rdf.Triple, n)
		for _, t := range op.Triples {
			sid, ok := after.Lookup(t.S)
			if !ok {
				continue // non-ground or never-interned subject: no shard holds it
			}
			i := shardOf(sid, n)
			perShard[i] = append(perShard[i], t)
		}
		for i, ts := range perShard {
			if len(ts) > 0 {
				routed[i] = append(routed[i], store.BatchOp{Delete: op.Delete, Triples: ts})
			}
		}
	}
	for i, sh := range c.shards {
		if after.TermCount() > before {
			sh.Batch(0, func(b *store.Batch) { internAll(b, terms[before:]) })
		}
		if len(routed[i]) > 0 {
			sh.ApplyBatch(routed[i])
		}
	}
	return added, removed
}

// ApplyUpdate implements the serving tier's Updater contract over the
// cluster: one SPARQL UPDATE request becomes one atomic batch on the
// source store, mirrored to the shards. The sharded tier is
// non-durable (no WAL underneath the shards yet — see ROADMAP);
// qaserve refuses -shards together with -data-dir for that reason.
func (c *Cluster) ApplyUpdate(ctx context.Context, ops []store.BatchOp) (gen uint64, added, removed int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	added, removed = c.ApplyBatch(ops)
	return c.src.Snapshot().Gen(), added, removed, nil
}

// Src returns the coordinator's source store (the authoritative
// single-store image all planning reads come from).
func (c *Cluster) Src() *store.Store { return c.src }

// NewView pins one consistent read view: the source snapshot for
// dictionary/statistics reads and every shard's snapshot for data
// reads, taken together under the cluster read lock. The view obeys
// the partial-answer policy of ctx (WithPartialOK).
func (c *Cluster) NewView(ctx context.Context) *View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v := &View{
		c:         c,
		ctx:       ctx,
		src:       c.src.Snapshot(),
		shards:    make([]*store.Snapshot, len(c.shards)),
		skipped:   make([]bool, len(c.shards)),
		partialOK: PartialOK(ctx),
	}
	for i, sh := range c.shards {
		v.shards[i] = sh.Snapshot()
	}
	return v
}

// unavailableError builds the sticky fail-fast error for shard i. The
// cause is flattened (%v, not %w) on purpose: an attempt timeout must
// surface as ErrUnavailable, not as context.DeadlineExceeded, or the
// serving tier would misreport a shard outage as a client timeout.
func unavailableError(i int, cause error) error {
	return fmt.Errorf("%w: shard %d: %v", ErrUnavailable, i, cause)
}
