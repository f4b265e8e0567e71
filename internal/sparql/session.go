// Per-question execution sessions.
//
// §2.3 of the paper runs a short ranked list of candidate queries per
// question — 4.67 on average here, each bound to the question's entity,
// one at a time in rank order, rank 0 usually winning. A Session is
// exactly what those few queries reuse. It is pinned to one StoreView —
// every candidate of the question reads the same frozen state — and it
// holds:
//
//   - the plan cache its owner attached (WithPlanCache; none by
//     default): sibling candidates share one cached shape (plan.go);
//     every candidate runs its own join,
//   - each probed entity's rdf:type set (InstanceOf): the §2.3.2 type
//     filter and the orientation typing ask "is e a C?" about the same
//     few entities for class after class, so the first probe reads the
//     entity's types in one subject-bound read and the rest are
//     answered here — on a sharded view, one shard call per entity
//     where a ground probe per class would be one per question asked.
//
// Constants resolve straight through the view (Lookup hashes the term
// and probes the dictionary index), every scan walks the index, and
// pattern cardinalities are hoisted into the compiled form once per
// query. No bucket caches a total: a 1-bound estimate is the length of
// its bucket's ID array, len(bk.ids), and a 2-bound one the length of
// one list, found by binary search.
//
// A Session is safe for concurrent use. The type sets are a pure
// function of the pinned view, so concurrent first probes of one entity
// read equal lists and which of them is kept is benign.
//
// Lifecycle: one Session per question (NewSnapshotSession /
// NewViewSession at request entry, then WithPlanCache with the owner's
// cache), shared by the SELECT candidates, the ASK path and the
// COUNT-aggregation retry, then dropped. The cache outlives it.

package sparql

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Session is a per-question SPARQL execution context pinned to one
// immutable store view. All methods are safe for concurrent use; see
// the comment at the top of this file for what it holds and why that
// is sound. The zero value is not usable — build one with
// NewSnapshotSession or NewViewSession.
type Session struct {
	snap  StoreView
	terms []rdf.Term
	plans *PlanCache // attached plan-shape cache; nil = every shape is built

	// Per-session plan/rank observability, read by PlanStats for the
	// answer traces (the cache keeps its own cumulative Stats).
	planHits   atomic.Uint64
	planMisses atomic.Uint64
	rankSorts  atomic.Uint64

	// Each probed subject's rdf:type objects, one read each: the first
	// few in place, the rest in a map. Guarded by mu.
	mu     sync.RWMutex
	first  [4]entityTypes
	nfirst int
	more   map[store.ID][]store.ID
}

// entityTypes is one probed subject and its rdf:type objects.
type entityTypes struct {
	id    store.ID
	types []store.ID
}

// NewSnapshotSession returns a session over an already-pinned snapshot
// (the staged pipeline pins one snapshot per request and executes the
// whole question against it). The session has no plan cache until
// WithPlanCache attaches one.
func NewSnapshotSession(snap *store.Snapshot) *Session {
	return NewViewSession(snap)
}

// NewViewSession returns a session over any frozen StoreView — a
// pinned snapshot or the sharded gather view (internal/shard). The
// whole executor reads through the view; see view.go for the contract
// the view must honour.
func NewViewSession(v StoreView) *Session {
	return &Session{snap: v, terms: v.TermsView()}
}

// WithPlanCache attaches a plan-shape cache to the session, so its
// queries compile from the shapes the cache holds and publish the ones
// they build; nil detaches it, and every query builds its shape from
// scratch. Call before the session is shared; it returns s for
// chaining.
func (s *Session) WithPlanCache(pc *PlanCache) *Session {
	s.plans = pc
	return s
}

// PlanStatsSnapshot is one session's plan-compilation observability:
// how many of its compiles hit the shared shape cache, how many
// missed (miss = shape built and published), and how many result
// sorts ran over the term-rank permutation. Hits and Misses are zero
// when the session's plan cache is disabled — a session without a
// cache reports no fabricated misses.
type PlanStatsSnapshot struct {
	Hits, Misses uint64
	RankSorts    uint64
}

// PlanStats returns the session's plan-cache and rank-sort counters.
// Safe for concurrent use.
func (s *Session) PlanStats() PlanStatsSnapshot {
	return PlanStatsSnapshot{
		Hits:      s.planHits.Load(),
		Misses:    s.planMisses.Load(),
		RankSorts: s.rankSorts.Load(),
	}
}

// ExecuteCtx runs the query through the session under a request
// context; see the package-level ExecuteCtx for the cancellation
// contract. All queries of the session read its pinned snapshot.
func (s *Session) ExecuteCtx(ctx context.Context, q *Query) (*Result, error) {
	if q == nil {
		return nil, fmt.Errorf("sparql: nil query")
	}
	if ctx == nil {
		//qalint:ignore ctxflow nil-ctx normalization at the public API boundary; callers without a context get an inert root here, never deeper.
		ctx = context.Background()
	}
	ex := compile(ctx, s, q)
	return ex.run()
}

// InstanceOf reports whether (entity, rdf:type, class) holds in the
// pinned view — the question of the §2.3.2 expected-type filter and of
// the orientation typing. The first probe of an entity reads its whole
// type set with one subject-bound (entity, rdf:type, ?) posting-list
// read; later probes of it are answered from the session. On a sharded
// view that is one owner-shard call per distinct entity, and an
// unreachable owner reads as an entity with no types, session-long.
func (s *Session) InstanceOf(entity, class rdf.Term) bool {
	cid, ok := s.snap.Lookup(class)
	return ok && slices.Contains(s.typesOf(entity), cid)
}

// typesOf returns the IDs of entity's rdf:type objects. Concurrent
// first probes may both read; the first to finish stores the (equal)
// list.
func (s *Session) typesOf(entity rdf.Term) []store.ID {
	sid, ok := s.snap.Lookup(entity)
	if !ok {
		return nil
	}
	s.mu.RLock()
	types, hit := s.knownTypes(sid)
	s.mu.RUnlock()
	if hit {
		return types
	}
	if pid, ok := s.snap.Lookup(rdf.Type()); ok {
		types, _ = s.snap.PostingList([3]store.ID{sid, pid, 0})
	}
	s.mu.Lock()
	if _, hit := s.knownTypes(sid); !hit {
		switch {
		case s.nfirst < len(s.first):
			s.first[s.nfirst] = entityTypes{sid, types}
			s.nfirst++
		case s.more == nil:
			s.more = map[store.ID][]store.ID{sid: types}
		default:
			s.more[sid] = types
		}
	}
	s.mu.Unlock()
	return types
}

// knownTypes returns the type set an earlier probe of sid read. The
// caller holds mu.
func (s *Session) knownTypes(sid store.ID) ([]store.ID, bool) {
	for _, e := range s.first[:s.nfirst] {
		if e.id == sid {
			return e.types, true
		}
	}
	types, ok := s.more[sid]
	return types, ok
}
