// Per-question execution sessions.
//
// §2.3 of the paper executes a Cartesian product of candidate queries
// per question, and the candidates in one fan-out differ only in a
// single property URI or triple orientation: they share almost all of
// their constant terms and base triple patterns. A Session is the
// execution context that exploits that shared substructure. It is
// pinned to exactly one store.Snapshot — every candidate of the
// question reads the same frozen state — and it memoizes, across the
// queries executed through it:
//
//   - term → dictionary-ID resolution (compile-time constant lookup),
//   - concrete-pattern base scans (pattern key → flat wildcard-position
//     ID tuples in sorted scan order), so dozens of sibling candidates
//     replay each other's index scans instead of re-walking buckets.
//     Only scans of at least scanMemoMin matches are memoized: tiny
//     entity-bound scans cost less than the memo bookkeeping would,
//   - each probed entity's rdf:type set (InstanceOf): the §2.3.2 type
//     filter and the orientation typing ask "is e a C?" about the same
//     few entities for class after class, so the first probe reads the
//     entity's types in one subject-bound read and the rest are
//     answered here — on a sharded view, one shard call per entity
//     where a ground probe per class would be one per question asked.
//
// Pattern cardinalities need no session map: compile hoists each
// pattern's exact base cardinality into the compiled form once (the
// planner re-reads it at every join step of every block), and the
// store's cached bucket totals make every estimate O(1).
//
// All memoization is safe under concurrent use: the fan-out worker pool
// in internal/answer executes sibling candidates on one shared Session.
// Safety rests on snapshot immutability — every memoized value is a
// pure function of the pinned snapshot, so concurrent fills compute
// identical entries and last-write-wins races are benign. Scan entries
// additionally use a per-entry sync.Once so a scan is performed at most
// once per session.
//
// Results are byte-identical with or without a session (and at any
// parallelism): memoization replays exactly the tuples the direct scan
// would produce, in the same order, and the planner sees exactly the
// same (exact) cardinalities. The differential tests in session_test.go
// and internal/answer pin this.
//
// Lifecycle: one Session per question (NewSession / NewSnapshotSession
// at request entry), shared by the SELECT fan-out, the ASK path and the
// COUNT-aggregation retry, then dropped — the memory it memoizes is
// request-scoped and bounded (scanBudget caps the memoized scan volume;
// oversized scans run direct and unmemoized).

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

// scanBudget bounds the total number of IDs a session may memoize for
// base-pattern scans (4 bytes each — the default is ~4 MiB). Patterns
// whose exact result size would overflow the remaining budget are
// executed directly and never memoized, so a pathological question
// cannot make its session retain an arbitrarily large slice of the KB.
const scanBudget = 1 << 20

// scanMemoMin is the smallest base-scan cardinality worth memoizing:
// below it, the lock/map bookkeeping of the memo costs more than the
// direct index scan it would save, so tiny entity-bound scans bypass
// the session entirely.
const scanMemoMin = 24

// scanEntry memoizes one base-pattern scan: the wildcard-position ID
// values of every match, flat, width values per match, in the
// deterministic sorted order ForEachMatchIDs yields. The once gate
// makes concurrent requesters perform the scan exactly once.
type scanEntry struct {
	once  sync.Once
	vals  []store.ID
	width int
}

// Session is a per-question SPARQL execution context pinned to one
// immutable store snapshot. All methods are safe for concurrent use;
// see the package comment above for what is memoized and why that is
// sound. The zero value is not usable — build one with NewSession or
// NewSnapshotSession.
type Session struct {
	snap  StoreView
	terms []rdf.Term
	plans *PlanCache // global plan-shape cache; nil = caching disabled

	// Per-session plan/rank observability, read by PlanStats for the
	// answer traces (the global cache keeps its own cumulative Stats).
	planHits   atomic.Uint64
	planMisses atomic.Uint64
	resultHits atomic.Uint64
	rankSorts  atomic.Uint64

	mu     sync.RWMutex
	ids    map[rdf.Term]store.ID      // constant resolution; 0 = not in dictionary; guarded by mu
	scans  map[[3]store.ID]*scanEntry // nil entry: over budget, do not memoize; guarded by mu
	types  map[store.ID][]store.ID    // subject → its rdf:type objects, one read each; guarded by mu
	budget int                        // remaining scan-memo IDs; guarded by mu
}

// NewSession pins the store's current snapshot and returns a session
// over it.
func NewSession(st *store.Store) *Session {
	return NewSnapshotSession(st.Snapshot())
}

// NewSnapshotSession returns a session over an already-pinned snapshot
// (the staged pipeline pins one snapshot per request and executes the
// whole question against it). The memo maps initialise lazily so the
// single-query compatibility path (package-level Execute) pays for
// memoization only if its query would actually use it. Sessions
// consult the process-wide plan cache by default; WithPlanCache
// overrides (or, with nil, disables) that.
func NewSnapshotSession(snap *store.Snapshot) *Session {
	return NewViewSession(snap)
}

// NewViewSession returns a session over any frozen StoreView — a
// pinned snapshot or the sharded gather view (internal/shard). The
// whole executor reads through the view; see view.go for the contract
// the view must honour.
func NewViewSession(v StoreView) *Session {
	return &Session{snap: v, terms: v.TermsView(),
		plans: defaultPlanCache, budget: scanBudget}
}

// WithPlanCache replaces the session's plan-shape cache: a dedicated
// cache isolates a workload's shapes, nil disables plan caching so
// every query compiles its shape from scratch (the differential
// baseline). Call before the session is shared; it returns s for
// chaining.
func (s *Session) WithPlanCache(pc *PlanCache) *Session {
	s.plans = pc
	return s
}

// PlanStatsSnapshot is one session's plan-compilation observability:
// how many of its compiles hit the shared shape cache, how many
// missed (miss = shape built and published), how many executions were
// answered straight from an entry's bound-result memo (ResultHits, a
// subset of Hits), and how many result sorts ran over the term-rank
// permutation. Counters are zero when the session's plan cache is
// disabled — a session without a cache reports no fabricated misses.
type PlanStatsSnapshot struct {
	Hits, Misses uint64
	ResultHits   uint64
	RankSorts    uint64
}

// PlanStats returns the session's plan-cache and rank-sort counters.
// Safe for concurrent use.
func (s *Session) PlanStats() PlanStatsSnapshot {
	return PlanStatsSnapshot{
		Hits:       s.planHits.Load(),
		Misses:     s.planMisses.Load(),
		ResultHits: s.resultHits.Load(),
		RankSorts:  s.rankSorts.Load(),
	}
}

// View returns the pinned store view every query of this session
// reads.
func (s *Session) View() StoreView { return s.snap }

// Execute runs the query through the session.
func (s *Session) Execute(q *Query) (*Result, error) {
	//qalint:ignore ctxflow pre-context compatibility wrapper; new callers use ExecuteCtx.
	return s.ExecuteCtx(context.Background(), q)
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
	return compile(ctx, s, q).runMemoized()
}

// resolve returns the dictionary ID of t in the pinned snapshot,
// memoized across the session's queries (sibling candidates resolve
// the same handful of constants over and over).
func (s *Session) resolve(t rdf.Term) (store.ID, bool) {
	s.mu.RLock()
	id, hit := s.ids[t]
	s.mu.RUnlock()
	if hit {
		return id, id != 0
	}
	id, ok := s.snap.Lookup(t)
	if !ok {
		id = 0
	}
	s.mu.Lock()
	if s.ids == nil {
		s.ids = make(map[rdf.Term]store.ID)
	}
	s.ids[t] = id
	s.mu.Unlock()
	return id, ok
}

// InstanceOf reports whether (entity, rdf:type, class) holds in the
// pinned view — the question of the §2.3.2 expected-type filter and of
// the orientation typing. The first probe of an entity reads its whole
// type set with one subject-bound (entity, rdf:type, ?) posting-list
// read; later probes of it are answered from the session. On a sharded
// view that is one owner-shard call per distinct entity, and an
// unreachable owner reads as an entity with no types, session-long.
func (s *Session) InstanceOf(entity, class rdf.Term) bool {
	cid, ok := s.resolve(class)
	return ok && slices.Contains(s.typesOf(entity), cid)
}

// typesOf returns the IDs of entity's rdf:type objects. Concurrent
// first probes may both read; they store equal lists.
func (s *Session) typesOf(entity rdf.Term) []store.ID {
	sid, ok := s.resolve(entity)
	if !ok {
		return nil
	}
	s.mu.RLock()
	types, hit := s.types[sid]
	s.mu.RUnlock()
	if hit {
		return types
	}
	if pid, ok := s.resolve(rdf.Type()); ok {
		types, _ = s.snap.PostingList([3]store.ID{sid, pid, 0})
	}
	s.mu.Lock()
	if s.types == nil {
		s.types = make(map[store.ID][]store.ID)
	}
	s.types[sid] = types
	s.mu.Unlock()
	return types
}

// baseScan returns the memoized scan for a base pattern key, running
// the scan on first use. card is the pattern's exact cardinality
// (already resolved at compile time) and width the number of wildcard
// (zero) positions in the key. It returns nil when the scan does not
// fit the session's remaining memo budget — the caller then scans the
// snapshot directly.
func (s *Session) baseScan(pat [3]store.ID, card, width int) *scanEntry {
	s.mu.RLock()
	e, hit := s.scans[pat]
	s.mu.RUnlock()
	if !hit {
		size := card * width
		s.mu.Lock()
		if s.scans == nil {
			s.scans = make(map[[3]store.ID]*scanEntry)
		}
		if e, hit = s.scans[pat]; !hit {
			if size <= s.budget {
				e = &scanEntry{width: width}
				s.budget -= size
			}
			s.scans[pat] = e // possibly nil: over budget, never memoize
		}
		s.mu.Unlock()
	}
	if e == nil {
		return nil
	}
	e.once.Do(func() {
		e.vals = make([]store.ID, 0, card*width)
		s.snap.ForEachMatchIDs(pat, func(a, b, c store.ID) bool {
			m := [3]store.ID{a, b, c}
			for i := range pat {
				if pat[i] == 0 {
					e.vals = append(e.vals, m[i])
				}
			}
			return true
		})
	})
	return e
}
