// The shape phase of the compile split, and the global plan-shape
// cache wiring.
//
// A compiled query used to be one monolithic object. PR 9 split it:
//
//   - planShape is everything derivable from the query *text* alone —
//     the var→column layout, the variable/constant slot structure of
//     every triple pattern, the filter pushdown split with per-filter
//     column sets, the ORDER BY key columns and the projection. It
//     contains no dictionary IDs and no cardinalities, so it is valid
//     at every store generation and shareable by every query with the
//     same shape key.
//   - the bind phase (executor.bindPatterns in eval.go) resolves the
//     executing query's concrete constant terms to dictionary IDs
//     against the session's pinned snapshot and hoists each pattern's
//     exact base cardinality — the two genuinely snapshot-dependent
//     compile steps.
//
// The §2.3 candidates make this split pay: the few a question ranks
// (4.67 on the entity stream) — and those of every other question of
// the same form — differ only in their bound terms, so they all map to
// one shape key and one cached planShape; only the cheap bind phase
// runs per candidate. Shapes live in a global
// internal/sparql/plancache (sharded, bounded, generation-stamped)
// shared across sessions, so sibling candidates within one question
// and across concurrent questions hit the same entries.
//
// Each entry additionally carries a bound-result memo (planEntry): a
// SPARQL result is a pure function of (snapshot, query text), so once
// a candidate has executed, re-issuing the identical query at the
// same generation replays its full columnar result with zero join
// work. The shape key pins the structure, the bind key
// (executor.bindKey) pins the store identity, the resolved constants
// and LIMIT/OFFSET, and the plancache generation stamp evicts the
// whole entry — memo included — on any store write.
//
// Sharing is sound because a planShape is immutable after buildShape
// returns: the executor only reads it. And two queries with equal
// shape keys compile to interchangeable shapes: the key preserves
// variable names, pattern/union/optional structure, the full text of
// every FILTER and ORDER BY expression (via Expr.String, whose
// terminal tokens — '?'-prefixed variables, quoted literals,
// bracketed or prefix-shortened IRIs — are mutually unambiguous) and
// the projection, abstracting only the constant terms inside triple
// patterns, which the shape never looks at. LIMIT/OFFSET are excluded
// from both the key and the shape; the executor reads them from the
// executing query.

package sparql

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
	"repro/internal/sparql/plancache"
	"repro/internal/store"
)

// spat is the shape of one triple pattern: per position either a row
// column (vars[i] >= 0) or a constant marker (vars[i] < 0). The bind
// phase resolves the executing query's concrete term at each constant
// position.
type spat struct {
	vars [3]int
}

// filterCols pairs a filter/order expression with the row columns it
// reads. Variables the expression mentions that have no column are
// simply absent from cols: they can never be bound, so Eval sees them
// as unbound and rejects the solution (except BOUND, which reports
// false).
type filterCols struct {
	expr Expr
	cols []int
}

// orderKeyCols is one compiled ORDER BY criterion.
type orderKeyCols struct {
	fc   filterCols
	desc bool
}

// planShape is the snapshot-independent half of a compiled query. It
// is immutable once built — executors bind against it concurrently —
// and is what the global plan cache stores.
type planShape struct {
	varCols  map[string]int
	varNames []string // column -> variable name
	ncols    int

	patterns  []spat
	unions    [][][]spat
	optionals [][]spat

	// Filter pushdown split (see run): early filters run inside the
	// required BGP as soon as their columns bind; late ones run after
	// UNION/OPTIONAL. Expressions are stored from the query that built
	// the shape; equal shape keys guarantee textually — and therefore
	// semantically — identical expressions.
	early, late []filterCols
	orderKeys   []orderKeyCols

	projVars []string // projection var list (Star resolved)
	projCols []int    // column per projected var; -1: never bound
}

func (sh *planShape) filterColumns(f Expr) filterCols {
	fc := filterCols{expr: f}
	for v := range exprVars(f) {
		if col, ok := sh.varCols[v]; ok {
			fc.cols = append(fc.cols, col)
		}
	}
	sortInts(fc.cols)
	return fc
}

// sortInts sorts the (tiny) column sets without pulling sort.Ints'
// interface boxing into the shape build.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// buildShape compiles the snapshot-independent form of q. It is a pure
// function of the query text (no session, no snapshot).
func buildShape(q *Query) *planShape {
	sh := &planShape{varCols: map[string]int{}}
	// Column order must match Query.Vars() so SELECT * projects in the
	// documented order of first appearance.
	for _, v := range q.Vars() {
		sh.varCols[v] = len(sh.varNames)
		sh.varNames = append(sh.varNames, v)
	}
	sh.ncols = len(sh.varNames)

	sh.patterns = sh.shapePatterns(q.Patterns)
	for _, block := range q.Unions {
		branches := make([][]spat, len(block))
		for i, branch := range block {
			branches[i] = sh.shapePatterns(branch)
		}
		sh.unions = append(sh.unions, branches)
	}
	for _, opt := range q.Optionals {
		sh.optionals = append(sh.optionals, sh.shapePatterns(opt))
	}

	// Filters whose variables are all introduced by the required BGP run
	// inside it (pushdown); the rest run after UNION/OPTIONAL.
	requiredVars := map[string]bool{}
	for _, p := range q.Patterns {
		for _, v := range p.Vars() {
			requiredVars[v] = true
		}
	}
	for _, f := range q.Filters {
		deferred := false
		for v := range exprVars(f) {
			if !requiredVars[v] {
				deferred = true
				break
			}
		}
		if deferred && (len(q.Unions) > 0 || len(q.Optionals) > 0) {
			sh.late = append(sh.late, sh.filterColumns(f))
		} else {
			sh.early = append(sh.early, sh.filterColumns(f))
		}
	}

	for _, key := range q.OrderBy {
		sh.orderKeys = append(sh.orderKeys,
			orderKeyCols{fc: sh.filterColumns(key.Expr), desc: key.Desc})
	}

	// Projection variable list and column mapping (-1: never bound).
	sh.projVars = q.Projection
	if q.Star {
		sh.projVars = q.Vars()
	}
	sh.projCols = make([]int, len(sh.projVars))
	for i, v := range sh.projVars {
		if col, ok := sh.varCols[v]; ok {
			sh.projCols[i] = col
		} else {
			sh.projCols[i] = -1
		}
	}
	return sh
}

func (sh *planShape) shapePatterns(pats []rdf.Triple) []spat {
	out := make([]spat, len(pats))
	for i, p := range pats {
		sp := spat{vars: [3]int{-1, -1, -1}}
		for j, t := range [3]rdf.Term{p.S, p.P, p.O} {
			if t.IsVar() {
				sp.vars[j] = sh.varCols[t.Value]
			}
		}
		out[i] = sp
	}
	return out
}

// shapeKey serialises everything buildShape reads into a canonical
// string: form/DISTINCT/COUNT/projection, the pattern structure with
// variable names kept and constant terms abstracted to a placeholder
// (that abstraction is what lets fan-out siblings share one entry),
// and the verbatim text of every FILTER and ORDER BY expression
// (their constants stay concrete: filter semantics depend on them).
// LIMIT and OFFSET are deliberately absent — the executor reads them
// from the query at run time.
func shapeKey(q *Query) string {
	var sb strings.Builder
	sb.Grow(64)
	if q.Form == FormAsk {
		sb.WriteString("A|")
	} else {
		sb.WriteString("S|")
	}
	if q.Distinct {
		sb.WriteString("D|")
	}
	switch {
	case q.Count != nil:
		sb.WriteString("C(")
		if q.Count.Distinct {
			sb.WriteString("D ")
		}
		sb.WriteString(q.Count.Var + ">" + q.Count.As + ")|")
	case q.Star:
		sb.WriteString("*|")
	default:
		for _, v := range q.Projection {
			sb.WriteString("?" + v + " ")
		}
		sb.WriteByte('|')
	}
	pat := func(p rdf.Triple) {
		for _, t := range [3]rdf.Term{p.S, p.P, p.O} {
			if t.IsVar() {
				sb.WriteString("?" + t.Value)
			} else {
				sb.WriteByte('.') // constant placeholder
			}
			sb.WriteByte(' ')
		}
		sb.WriteByte(';')
	}
	for _, p := range q.Patterns {
		pat(p)
	}
	for _, block := range q.Unions {
		sb.WriteString("|U")
		for _, branch := range block {
			sb.WriteByte('{')
			for _, p := range branch {
				pat(p)
			}
			sb.WriteByte('}')
		}
	}
	for _, opt := range q.Optionals {
		sb.WriteString("|O{")
		for _, p := range opt {
			pat(p)
		}
		sb.WriteByte('}')
	}
	for _, f := range q.Filters {
		sb.WriteString("|F" + f.String())
	}
	for _, k := range q.OrderBy {
		if k.Desc {
			sb.WriteString("|>" + k.Expr.String())
		} else {
			sb.WriteString("|<" + k.Expr.String())
		}
	}
	return sb.String()
}

// DefaultPlanCacheSize is the capacity of the process-wide default
// plan cache every session consults unless overridden. The fan-out
// generates a few shapes per question template, so a few hundred
// entries cover the whole workload; a shape is small (column maps and
// int slices), so the cap is memory-insignificant either way.
const DefaultPlanCacheSize = 512

// Bounds on the per-entry bound-result memo (see planEntry): a result
// larger than maxMemoResultIDs is never memoized, one entry holds at
// most maxEntryResults distinct bindings and maxEntryMemoIDs total
// IDs. With the default 512-entry cache the worst case is ~16 MiB of
// memoized IDs — request results in this system are a handful of rows,
// so the real footprint is orders of magnitude below that.
const (
	maxMemoResultIDs = 4096
	maxEntryResults  = 32
	maxEntryMemoIDs  = 8192
)

// planEntry is one plan-cache value: the immutable shared shape, plus
// a small bound-result memo — the bind-phase memo the generation stamp
// was designed to carry. A SPARQL result is a pure function of
// (snapshot, query text): the shape key pins everything but the
// pattern constants and LIMIT/OFFSET, the bind key (executor.bindKey)
// pins those, and the plancache generation stamp pins the snapshot —
// any store write evicts the whole entry, memo included. So sibling
// candidates re-issued across questions replay their full columnar
// result instead of re-running the join. Payloads are copied both on
// store and on every hit: no caller ever aliases the memo's slices.
type planEntry struct {
	shape *planShape

	mu      sync.Mutex
	results map[string]*memoResult // bind key -> memoized result; guarded by mu
	memoIDs int                    // total IDs held by results; guarded by mu
}

// memoResult is one memoized execution result: an ASK boolean, a
// columnar SELECT payload, or a COUNT aggregate scalar (the count is a
// synthesised literal with no dictionary ID, so it is carried as the
// term itself plus its projection name — sound under the same
// generation stamp as everything else, since any store write evicts
// the entry).
type memoResult struct {
	ask     bool // FormAsk: boolean is the payload, rows unused
	boolean bool
	vars    []string
	rows    []store.ID // private copy; copied again on every hit
	nrows   int

	count     bool // COUNT aggregate: countTerm/countAs are the payload
	countAs   string
	countTerm rdf.Term
}

// materialize rebuilds a fresh Result from the memo over the session's
// pinned dictionary view. The generation check already happened at
// entry lookup, so terms is guaranteed to cover every memoized ID.
func (mr *memoResult) materialize(terms []rdf.Term) *Result {
	if mr.ask {
		return &Result{Form: FormAsk, Boolean: mr.boolean}
	}
	if mr.count {
		row := Binding{mr.countAs: mr.countTerm}
		return newMaterializedResult(FormSelect, []string{mr.countAs}, []Binding{row})
	}
	rows := make([]store.ID, len(mr.rows))
	copy(rows, mr.rows)
	return newColumnarResult(mr.vars, rows, mr.nrows, terms)
}

// cached returns the memoized result for the bind key, if any.
func (e *planEntry) cached(key string) (*memoResult, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	mr, ok := e.results[key]
	return mr, ok
}

// maybeStore memoizes a completed execution's result under the bind
// key, within the entry's bounds. Oversized results are skipped; a
// concurrent duplicate store is a no-op (the two computed identical
// results — snapshot immutability).
func (e *planEntry) maybeStore(key string, res *Result, q *Query) {
	mr := &memoResult{}
	n := 0
	switch {
	case q.Count != nil:
		// The aggregate is a single synthesised-literal row; memoize the
		// scalar itself (there are no IDs to copy).
		if res.Len() != 1 {
			return
		}
		t, ok := res.Solutions()[0][q.Count.As]
		if !ok {
			return
		}
		mr.count, mr.countAs, mr.countTerm = true, q.Count.As, t
	case q.Form == FormAsk:
		mr.ask, mr.boolean = true, res.Boolean
	default:
		if len(res.Rows) > maxMemoResultIDs {
			return
		}
		rows := make([]store.ID, len(res.Rows))
		copy(rows, res.Rows)
		mr.vars, mr.rows, mr.nrows = res.Vars, rows, res.Len()
		n = len(rows)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.results[key]; dup {
		return
	}
	if len(e.results) >= maxEntryResults || e.memoIDs+n > maxEntryMemoIDs {
		return
	}
	if e.results == nil {
		e.results = make(map[string]*memoResult)
	}
	e.memoIDs += n
	e.results[key] = mr
}

// PlanCache is a shared, bounded, generation-stamped cache of compiled
// plan shapes and their bound-result memos. Safe for concurrent use by
// any number of sessions; see internal/sparql/plancache for the
// caching discipline.
type PlanCache struct {
	c          *plancache.Cache[*planEntry]
	resultHits atomic.Uint64
}

// NewPlanCache builds a plan cache holding about capacity shapes
// (capacity <= 0 is clamped to a small minimum by the underlying
// cache; to disable caching entirely, give the session a nil
// *PlanCache via WithPlanCache).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{c: plancache.New[*planEntry](capacity)}
}

// Stats returns the cache's cumulative hit, miss and eviction counts.
func (p *PlanCache) Stats() (hits, misses, evictions uint64) { return p.c.Stats() }

// ResultHits returns how many executions were answered straight from
// an entry's bound-result memo (a strict subset of Stats hits).
func (p *PlanCache) ResultHits() uint64 { return p.resultHits.Load() }

// Len returns the number of cached shapes.
func (p *PlanCache) Len() int { return p.c.Len() }

// defaultPlanCache is the process-wide cache sessions use by default:
// the fan-out's shapes are global by construction (every question's
// candidates share a handful of templates), so cross-session sharing
// is the point, not an option.
var defaultPlanCache = NewPlanCache(DefaultPlanCacheSize)

// DefaultPlanCache returns the process-wide plan cache (for stats
// surfacing; sessions get it automatically).
func DefaultPlanCache() *PlanCache { return defaultPlanCache }

// planFor returns the compiled shape for q plus its cache entry (nil
// when the session's plan cache is disabled — the entry is where the
// bound-result memo lives). Cache entries are stamped with the pinned
// snapshot's generation: a session pinning a newer store never gets a
// shape — or a memoized result — stored before the last write (stale
// entries are evicted), and a session pinning an older snapshot never
// clobbers a fresher entry (plancache refuses stale Puts).
func (s *Session) planFor(q *Query) (*planShape, *planEntry) {
	pc := s.plans
	if pc == nil {
		return buildShape(q), nil
	}
	key := shapeKey(q)
	gen := s.snap.Gen()
	if e, ok := pc.c.Get(key, gen); ok {
		s.planHits.Add(1)
		if !resultMemoEligible(s.snap) {
			return e.shape, nil // share the shape, bypass the result memo
		}
		return e.shape, e
	}
	s.planMisses.Add(1)
	e := &planEntry{shape: buildShape(q)}
	pc.c.Put(key, gen, e)
	if !resultMemoEligible(s.snap) {
		return e.shape, nil
	}
	return e.shape, e
}

// rankKey maps an ID to its integer sort key under the snapshot's
// term-rank permutation: 0 for unbound (ID 0 — unbound sorts first,
// matching rowLess), otherwise rank+1. Distinct IDs map to distinct
// keys (store.Snapshot.TermRanks guarantees rank injectivity), so
// comparing keys is exactly comparing terms.
func rankKey(ranks []uint32, id store.ID) uint32 {
	if id == 0 {
		return 0
	}
	return ranks[id-1] + 1
}

// rankRowLess is rowLess over the term-rank permutation: identical
// ordering, zero term materialization.
func rankRowLess(ranks []uint32, a, b []store.ID, cols []int) bool {
	for _, col := range cols {
		if col < 0 {
			continue
		}
		ia, ib := a[col], b[col]
		if ia == ib {
			continue
		}
		return rankKey(ranks, ia) < rankKey(ranks, ib)
	}
	return false
}
