// Package sparql parses and executes the SPARQL fragment the question
// answering pipeline generates, over the ID-space surface of
// internal/store.
//
// # ID-space execution with late materialization
//
// The executor never joins over rdf.Term values. Compilation runs in
// two phases (compile). The *shape* phase derives everything the query
// text alone determines — the var->column layout, each triple
// pattern's (variable column | constant marker) slot structure, the
// FILTER comparisons, ORDER BY keys and the projection — into an
// immutable planShape (plan.go); a session with a plan cache attached
// (PlanCache, which core.System owns — the package holds none) looks
// shapes up keyed on the query's structure with constant terms
// abstracted away, so the few sibling candidates §2.3 ranks per
// question (4.67 on the entity stream) — and every later question of
// the same form — share one cached shape. The *bind* phase then
// resolves the executing query's concrete constants to dictionary IDs
// against the session's pinned snapshot and hoists each pattern's
// exact base cardinality (bindPatterns) — the only per-candidate
// compile work on a cache hit. Every execution then runs its join: no
// result is cached. The join, FILTER, DISTINCT, ORDER BY and COUNT run
// over flat []store.ID rows packed into a rowset arena — one
// contiguous buffer, no per-solution maps, no term copies. The final
// Result stays columnar too (Result.Rows plus the pinned dictionary
// view); terms are materialised only when a consumer asks for them
// (and, transiently, when a FILTER comparison or an ORDER BY key needs
// term semantics).
//
// # Sessions and snapshot-pinned reads
//
// Every query executes inside a Session pinned to one immutable
// store.Snapshot: constant resolution, cardinality estimation, every
// index scan and the final dictionary view all read the same frozen
// state, so queries never block behind concurrent bulk loads (the
// store publishes new snapshots alongside) and never observe a
// half-applied AddAll batch. The package-level ExecuteCtx wraps each
// call in a throwaway single-query session with no plan cache; the
// answer stage builds one Session per question, attaches its System's
// plan cache and executes that question's §2.3 candidates through it,
// one at a time in rank order, sharing the cached shapes and each
// probed entity's rdf:type set. The session lifecycle,
// what it holds and why sharing it is sound are documented in
// session.go.
//
// # Join strategy
//
// The basic graph pattern joins greedily by exact cardinality
// (pickPattern; each compiled pattern's base cardinality is resolved
// once at compile time). A pattern whose only variable is already
// bound degenerates to an existence filter and is answered by one sorted-ID
// galloping merge against the store's posting list (extendStep /
// mergeFilter) instead of a per-row index probe; all other patterns
// extend row by row over ForEachMatchIDs. Join order is
// chosen at run time from the bound cardinalities — it is never part
// of the cached shape, so a shared shape cannot pin a stale order.
//
// Results without ORDER BY are returned in a deterministic default
// order: sorted by the projected columns' terms (rowLess in
// termspace_reference_test.go defines the order).
// Production sorts never materialise
// terms to get there — they compare integer ranks from the snapshot's
// lazily-built term-rank permutation (store.Snapshot.TermRanks;
// rankRowLess in plan.go), which maps each dictionary ID to its
// position in term sort order. Rank order equals term order exactly
// (Compare is a strict total order over the dictionary), ties occur
// only between rows whose projected tuples are identical — which are
// interchangeable — so the sorts can be unstable, and a single-column
// DISTINCT deduplicates in ID space before any sort touches the rows.
// ORDER BY
// itself stays on materialised terms: its comparison (numeric
// coercion, compareTerms) is deliberately not term order.
// None of these strategies changes observable results — only which
// physical reads and comparisons produce them.

package sparql

import (
	"context"
	"slices"
	"sort"

	"repro/internal/rdf"
	"repro/internal/store"
)

// ExecuteCtx runs the query against a pinned view (a *store.Snapshot
// passes as is), honouring cancellation: the executor checks ctx
// between join steps (per pattern of the basic graph pattern, and
// before the final sort/projection) and returns ctx.Err() as soon as
// it observes a cancelled context, so a request whose deadline passes
// or whose client goes away stops mid-join.
//
// Each call runs in a fresh single-query Session over v, with no plan
// cache. Callers executing one question's candidates build one Session
// and execute through it, so the candidates share the entity type sets
// (and, with WithPlanCache, the shapes); results are identical either
// way.
func ExecuteCtx(ctx context.Context, v StoreView, q *Query) (*Result, error) {
	return NewViewSession(v).ExecuteCtx(ctx, q)
}

// ExecuteStringCtx parses and runs src against a pinned view under a
// request context; see ExecuteCtx for the cancellation contract.
func ExecuteStringCtx(ctx context.Context, v StoreView, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ExecuteCtx(ctx, v, q)
}

// cpat is a triple pattern compiled to ID space: per position either a
// constant dictionary ID (vars[i] < 0) or a row column (ids[i] == 0).
// baseCard is the pattern's exact unsubstituted cardinality, resolved
// once at compile time (the planner re-reads it at every join step).
type cpat struct {
	ids      [3]store.ID
	vars     [3]int
	baseCard int
}

// executor holds one bound query: the session (whose pinned snapshot
// every read of the query uses), the shared immutable plan shape, and
// the patterns resolved to IDs against the pinned snapshot.
type executor struct {
	sess  *Session
	snap  StoreView // the session's pinned store view
	q     *Query
	ctx   context.Context // cancellation, checked between join steps
	terms []rdf.Term      // snap.TermsView(): terms[id-1] materialises an ID
	shape *planShape      // possibly cache-shared; read-only

	patterns []cpat
	// unmatched marks a pattern constant absent from the dictionary:
	// that pattern can never match, so the group has no solution.
	unmatched bool
}

// term materialises one ID through the pinned dictionary view. Every ID
// the query can produce came from the pinned snapshot, so the view is
// guaranteed to cover it.
func (ex *executor) term(id store.ID) rdf.Term {
	return ex.terms[id-1]
}

// compile builds the executable form of q in two phases: the shape
// phase (buildShape via the session's plan cache — the column layout,
// pattern slot structure, filters and projection, all independent
// of which concrete terms are bound; see plan.go) and the bind phase
// below, which resolves the executing query's constants to dictionary
// IDs and hoists exact base cardinalities from the pinned snapshot. The
// executor is returned by value: one execution keeps it on its stack.
func compile(ctx context.Context, sess *Session, q *Query) executor {
	sh := sess.planFor(q)
	ex := executor{sess: sess, snap: sess.snap, q: q, ctx: ctx,
		terms: sess.terms, shape: sh}
	ex.bindPatterns(q.Patterns)
	return ex
}

// bindPatterns is the bind phase: each shape slot keeps its column
// layout, and every constant position resolves the executing query's
// concrete term (the shape abstracted it away, so sibling candidates
// differing only in bound terms share shapes). A constant the
// dictionary lacks sets unmatched and ends the bind.
func (ex *executor) bindPatterns(pats []rdf.Triple) {
	ex.patterns = make([]cpat, len(pats))
	for i, sp := range ex.shape.patterns {
		cp := cpat{vars: sp.vars}
		p := pats[i]
		for j, t := range [3]rdf.Term{p.S, p.P, p.O} {
			if sp.vars[j] >= 0 {
				continue
			}
			id, ok := ex.snap.Lookup(t)
			if !ok {
				ex.unmatched = true
				return
			}
			cp.ids[j] = id
		}
		// Hoisted once per bound pattern: the planner re-reads this at
		// every join step. No bucket caches a total; a 1-bound estimate
		// is len(bk.ids) of its bucket, a 2-bound one a binary search.
		cp.baseCard = ex.snap.EstimateCardinalityIDs(cp.ids)
		ex.patterns[i] = cp
	}
}

// rowset is a flat arena of binding rows: n rows of stride IDs each,
// packed back to back in buf. ID(0) marks a column not yet bound.
type rowset struct {
	buf    []store.ID
	stride int
	n      int
}

func (rs *rowset) row(i int) []store.ID {
	return rs.buf[i*rs.stride : (i+1)*rs.stride]
}

// push appends a copy of r (which must have length stride) and returns
// the appended row for in-place extension.
func (rs *rowset) push(r []store.ID) []store.ID {
	rs.buf = append(rs.buf, r...)
	rs.n++
	return rs.buf[len(rs.buf)-rs.stride:]
}

// pop discards the most recently pushed row (used to back out a
// repeated-variable conflict detected mid-extension).
func (rs *rowset) pop() {
	rs.buf = rs.buf[:len(rs.buf)-rs.stride]
	rs.n--
}

// compact keeps only the rows for which keep returns true, preserving
// order. It rewrites buf in place: the write cursor never passes the
// read cursor, so the aliasing is safe; a test in eval_id_test.go pins
// this invariant.
func (rs *rowset) compact(keep func(r []store.ID) bool) {
	w := 0
	for i := 0; i < rs.n; i++ {
		r := rs.row(i)
		if keep(r) {
			copy(rs.buf[w*rs.stride:], r)
			w++
		}
	}
	rs.n = w
	rs.buf = rs.buf[:w*rs.stride]
}

// substituted returns the scan pattern for cp under row r: constants
// keep their IDs, bound variables contribute the row's ID, unbound
// variables stay wildcards.
func substituted(cp cpat, r []store.ID) [3]store.ID {
	pat := cp.ids
	for i, col := range cp.vars {
		if col >= 0 && r[col] != 0 {
			pat[i] = r[col]
		}
	}
	return pat
}

// extendInto scans the matches of cp under each row of src and appends
// the extended rows to dst. A row that leaves one position of cp free
// reads that position's sorted posting list, which holds the matches in
// scan order; any other row streams the scan (scanInto).
func (ex *executor) extendInto(dst *rowset, src *rowset, cp cpat) {
	for i := 0; i < src.n; i++ {
		r := src.row(i)
		pat := substituted(cp, r)
		if col := freeColumn(cp, pat); col >= 0 {
			if lst, ok := ex.snap.PostingList(pat); ok {
				for _, id := range lst {
					dst.push(r)[col] = id
				}
				continue
			}
		}
		ex.scanInto(dst, r, cp, pat)
	}
}

// freeColumn returns the row column of pat's one free position, or -1
// when pat has no free position or more than one. A free position holds
// a variable the row leaves unbound; the variable cannot recur in the
// pattern, where it would leave a second position free.
func freeColumn(cp cpat, pat [3]store.ID) int {
	col := -1
	for pos, id := range pat {
		if id != 0 {
			continue
		}
		if col >= 0 {
			return -1
		}
		col = cp.vars[pos]
	}
	return col
}

// scanInto appends r extended by every match of pat to dst, checking
// repeated variables within cp for consistency. The callback works on a
// copy of *dst, so only a row that reaches the scan pays for the
// closure's captures.
func (ex *executor) scanInto(dst *rowset, r []store.ID, cp cpat, pat [3]store.ID) {
	out := *dst
	ex.snap.ForEachMatchIDs(pat, func(s, p, o store.ID) bool {
		nr := out.push(r)
		match := [3]store.ID{s, p, o}
		for pos, col := range cp.vars {
			if col < 0 {
				continue
			}
			if nr[col] == 0 {
				nr[col] = match[pos]
			} else if nr[col] != match[pos] {
				out.pop()
				return true
			}
		}
		return true
	})
	*dst = out
}

// semiJoinList reports whether cp is a pure existence filter under the
// block's bound columns — exactly one variable position, already bound,
// and two constants, so every row substitutes cp to a fully ground
// triple — and returns the sorted posting list of the free position.
// One linear merge over that list then answers every row's existence
// check, replacing a per-row bucket lookup (the dominant §2.3 join
// cost: the `?p rdf:type Class` filter against thousands of candidate
// rows).
func (ex *executor) semiJoinList(cp cpat, bound []bool) (col int, lst []store.ID, ok bool) {
	col = -1
	for _, c := range cp.vars {
		if c < 0 {
			continue
		}
		if col >= 0 {
			return 0, nil, false // two variable positions
		}
		col = c
	}
	if col < 0 || !bound[col] {
		return 0, nil, false
	}
	lst, ok = ex.snap.PostingList(cp.ids)
	return col, lst, ok
}

// mergeFilter keeps only the rows whose col value appears in the
// sorted list, walking rows and list together in one in-place pass
// (rows that keep their position are not copied). Block-join rowsets
// keep the column in scan (non-decreasing) order, so the cursor only
// gallops forward; an out-of-order value restarts the search, keeping
// the filter correct for any row order. Row order is preserved, so the
// result is bit-identical to the per-row existence scan it replaces.
func mergeFilter(rows *rowset, col int, lst []store.ID) {
	stride, buf := rows.stride, rows.buf
	w, lo := 0, 0
	var prev store.ID
	for i := 0; i < rows.n; i++ {
		off := i * stride
		v := buf[off+col]
		if v < prev {
			lo = 0
		}
		prev = v
		lo = gallopTo(lst, lo, v)
		if lo < len(lst) && lst[lo] == v {
			if w != i {
				copy(buf[w*stride:(w+1)*stride], buf[off:off+stride])
			}
			w++
		}
	}
	rows.n = w
	rows.buf = buf[:w*stride]
}

// gallopTo returns the smallest index i >= lo with lst[i] >= v:
// exponential steps from lo bracket the window, then a hand-rolled
// bisection finishes inside it (this runs once per row of a block
// join — no closure indirection).
func gallopTo(lst []store.ID, lo int, v store.ID) int {
	n := len(lst)
	if lo >= n || lst[lo] >= v {
		return lo
	}
	step := 1
	hi := lo + step
	for hi < n && lst[hi] < v {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	// Invariant: lst[lo] < v, and hi == n or lst[hi] >= v.
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if lst[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// extendStep joins cp into rows: a pure existence filter merges against
// the pattern's sorted posting list in place; everything else goes
// through the row-by-row scan extension. When the (single) source row
// leaves cp unsubstituted, baseCard is the exact output size, so the
// next arena is allocated in one piece instead of growing by powers of
// two under push.
func (ex *executor) extendStep(rows rowset, cp cpat, bound []bool) rowset {
	if col, lst, ok := ex.semiJoinList(cp, bound); ok {
		mergeFilter(&rows, col, lst)
		return rows
	}
	capIDs := len(rows.buf)
	if rows.n == 1 && substituted(cp, rows.row(0)) == cp.ids {
		if c := cp.baseCard * rows.stride; c > capIDs {
			capIDs = c
		}
	}
	next := rowset{stride: rows.stride, buf: make([]store.ID, 0, capIDs)}
	ex.extendInto(&next, &rows, cp)
	return next
}

// pickPattern returns the index of the most selective remaining
// pattern under the representative row's bindings: smallest estimated
// cardinality, with a heavy penalty for patterns not sharing a variable
// with the bound set (cartesian products).
func (ex *executor) pickPattern(remaining []cpat, bound []bool, anyBound bool, rep []store.ID) int {
	bestIdx, bestCard := 0, int(^uint(0)>>1)
	for i, cp := range remaining {
		// Unsubstituted patterns read the cardinality resolved once at
		// compile time (shared across every join step); only genuinely
		// row-substituted patterns hit the snapshot, and those estimates
		// are O(1) list-length reads.
		card := cp.baseCard
		if pat := substituted(cp, rep); pat != cp.ids {
			card = ex.snap.EstimateCardinalityIDs(pat)
		}
		if anyBound && !sharesVar(cp, bound) {
			card *= 1000
		}
		if card < bestCard {
			bestIdx, bestCard = i, card
		}
	}
	return bestIdx
}

func sharesVar(cp cpat, bound []bool) bool {
	for _, col := range cp.vars {
		if col >= 0 && bound[col] {
			return true
		}
	}
	return false
}

// operandTerm materialises a filter operand under row r.
func (ex *executor) operandTerm(o operand, r []store.ID) rdf.Term {
	if o.col < 0 {
		return o.term
	}
	return ex.term(r[o.col])
}

// applyFilter drops the rows the filter rejects.
func (ex *executor) applyFilter(rows *rowset, f cfilter) {
	rows.compact(func(r []store.ID) bool {
		return holds(f.op, ex.operandTerm(f.l, r), ex.operandTerm(f.r, r))
	})
}

// evalBGP evaluates the basic graph pattern with each FILTER applied as
// soon as its columns are bound.
func (ex *executor) evalBGP() rowset {
	sh := ex.shape
	ncols := sh.ncols
	if sh.noSolution || ex.unmatched {
		return rowset{stride: ncols}
	}
	rows := rowset{stride: ncols, buf: make([]store.ID, ncols), n: 1} // the single empty solution

	var remBuf [4]cpat
	var boundBuf [16]bool
	remaining := append(remBuf[:0], ex.patterns...)
	bound := append(boundBuf[:0], make([]bool, ncols)...)
	applied := make([]bool, len(sh.filters))
	anyBound := false

	for {
		for i, f := range sh.filters {
			if !applied[i] && f.ready(bound) {
				applied[i] = true
				ex.applyFilter(&rows, f)
			}
		}
		if len(remaining) == 0 || rows.n == 0 || ex.ctx.Err() != nil {
			return rows
		}
		bestIdx := ex.pickPattern(remaining, bound, anyBound, rows.row(0))
		cp := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)

		rows = ex.extendStep(rows, cp, bound)
		for _, col := range cp.vars {
			if col >= 0 {
				bound[col] = true
				anyBound = true
			}
		}
	}
}

func (ex *executor) run() (*Result, error) {
	q := ex.q
	sh := ex.shape
	rows := ex.evalBGP()

	// The join stops at its first step under a cancelled context, and
	// may bail out mid-way; the partial rows must not be reported as a
	// (wrong) result.
	if err := ex.ctx.Err(); err != nil {
		return nil, err
	}

	if q.Form == FormAsk {
		return &Result{Form: FormAsk, Boolean: rows.n > 0}, nil
	}

	// COUNT aggregate: a single row with the count, straight from ID
	// space (two rows bind the same term iff they hold the same ID).
	if q.Count != nil {
		n := rows.n
		if v := q.Count.Var; v != "" {
			col, bound := sh.varCols[v]
			switch {
			case !bound:
				n = 0
			case q.Count.Distinct:
				seen := map[store.ID]bool{}
				for i := 0; i < rows.n; i++ {
					seen[rows.row(i)[col]] = true
				}
				n = len(seen)
			}
		}
		// The count is a synthesised literal with no dictionary ID, so
		// the aggregate result is materialised-only (Rows nil).
		row := Binding{q.Count.As: rdf.NewInteger(int64(n))}
		return newMaterializedResult(FormSelect, []string{q.Count.As}, []Binding{row}), nil
	}

	// Projection variable list and column mapping, resolved at shape
	// time (-1: never bound).
	vars := sh.projVars
	projCols := sh.projCols

	// DISTINCT over one column with no ORDER BY — the §2.3 candidate
	// shape: dedup in ID space *before* the deterministic sort, so the
	// sort touches only the distinct rows. The candidate queries are
	// SELECT DISTINCT ?x over thousands of pre-DISTINCT join rows with a
	// handful of distinct answers, and sorting all of them by
	// materialised terms dominated their cost. The output is identical
	// to dedup-after-sort: duplicate rows project identically (so which
	// survives is unobservable) and the final order is fully determined
	// by the projected terms.
	if q.Distinct && len(q.OrderBy) == 0 && len(projCols) == 1 {
		ids := distinctColumn(&rows, projCols[0])
		// The sort runs over the snapshot's term-rank permutation: rank
		// order equals Term.Compare order and distinct IDs hold distinct
		// ranks, so the pure integer sort is byte-identical to the term
		// sort it replaced with zero term materialization, and the
		// sorted ranks translate back through the inverse permutation.
		// A column no pattern binds holds one ID 0 and needs no sort.
		if len(ids) > 1 {
			ranks, order := ex.snap.TermRanks()
			ex.sess.rankSorts.Add(1)
			var keyBuf [64]uint32
			keys := append(keyBuf[:0], make([]uint32, len(ids))...)
			for i, id := range ids {
				keys[i] = ranks[id-1]
			}
			slices.Sort(keys)
			for i, k := range keys {
				ids[i] = order[k]
			}
		}
		first, last := window(q, len(ids))
		return newColumnarResult(vars, ids[first:last:last], last-first, ex.terms), nil
	}

	// ORDER BY sorts a permutation by the key columns' terms. Without
	// ORDER BY, rows sort by the projected terms so results are
	// deterministic.
	perm := make([]int, rows.n)
	for i := range perm {
		perm[i] = i
	}
	if len(q.OrderBy) > 0 {
		// ORDER BY compares by SPARQL value semantics (numeric coercion,
		// compareTerms) — a different order than Term.Compare — so this
		// path deliberately stays on materialised terms; the term-rank
		// permutation only replaces the ORDER-BY-less sorts. A key over
		// a constant or a never-bound variable orders nothing, so the
		// stable sort keeps the join order among rows it cannot tell
		// apart.
		sort.SliceStable(perm, func(a, b int) bool {
			ra, rb := rows.row(perm[a]), rows.row(perm[b])
			for _, k := range sh.orderKeys {
				c, ok := compareTerms(ex.term(ra[k.col]), ex.term(rb[k.col]))
				if !ok || c == 0 {
					continue
				}
				if k.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	} else if rows.n > 1 {
		// Deterministic default order, as an unstable integer sort over
		// the term-rank permutation. Unstable is safe without ORDER BY:
		// two rows tie under rankRowLess iff their projected tuples are
		// identical (rank injectivity), and rows with identical
		// projections are interchangeable — projection right below emits
		// exactly the projected columns, so any tie-order produces the
		// same output bytes (DISTINCT dedup likewise keys on projected
		// IDs only).
		ranks, _ := ex.snap.TermRanks()
		ex.sess.rankSorts.Add(1)
		sort.Slice(perm, func(a, b int) bool {
			return rankRowLess(ranks, rows.row(perm[a]), rows.row(perm[b]), projCols)
		})
	}

	// Project (still in ID space, into one flat arena) and DISTINCT.
	nproj := len(projCols)
	projected := rowset{stride: nproj, buf: make([]store.ID, 0, rows.n*nproj)}
	var seen map[string]bool
	if q.Distinct {
		seen = make(map[string]bool, rows.n)
	}
	keyBuf := make([]byte, 0, nproj*4)
	for _, i := range perm {
		r := rows.row(i)
		start := len(projected.buf)
		for _, col := range projCols {
			if col >= 0 {
				projected.buf = append(projected.buf, r[col])
			} else {
				projected.buf = append(projected.buf, 0)
			}
		}
		projected.n++
		if q.Distinct {
			keyBuf = appendRowKey(keyBuf[:0], projected.buf[start:])
			if seen[string(keyBuf)] {
				projected.pop()
				continue
			}
			seen[string(keyBuf)] = true
		}
	}

	// OFFSET / LIMIT, still in ID space: only the rows that survive the
	// window are ever exposed, and they stay columnar — the Result keeps
	// the flat ID rows plus the pinned dictionary view, and terms
	// materialise only when a consumer reads them.
	first, last := window(q, projected.n)

	// Copy the surviving window out of the arena so the (possibly much
	// larger) intermediate buffer can be collected.
	out := make([]store.ID, (last-first)*nproj)
	copy(out, projected.buf[first*nproj:last*nproj])
	return newColumnarResult(vars, out, last-first, ex.terms), nil
}

// window applies OFFSET/LIMIT to a result of n rows, returning the
// half-open surviving row range.
func window(q *Query, n int) (first, last int) {
	first, last = 0, n
	if q.Offset > 0 && q.Offset < last {
		first = q.Offset
	} else if q.Offset >= last {
		first = last
	}
	if q.Limit >= 0 && q.Limit < last-first {
		last = first + q.Limit
	}
	return first, last
}

// scanDistinct is how many distinct IDs distinctColumn finds by
// scanning its output before it builds a set: a §2.3 candidate has a
// handful of distinct answers.
const scanDistinct = 16

// distinctColumn projects one column of rows (col < 0: a column no
// pattern binds, ID 0) in input order, dropping duplicate IDs (two rows
// bind the same term iff they hold the same ID). A duplicate is found
// by scanning the output while it holds at most scanDistinct IDs, and
// through a set built from it past that.
func distinctColumn(rows *rowset, col int) []store.ID {
	var out []store.ID
	var seen map[store.ID]bool
	for i := 0; i < rows.n; i++ {
		var id store.ID
		if col >= 0 {
			id = rows.row(i)[col]
		}
		switch {
		case seen != nil:
			if seen[id] {
				continue
			}
			seen[id] = true
		case slices.Contains(out, id):
			continue
		case len(out) == scanDistinct:
			seen = make(map[store.ID]bool, 2*scanDistinct)
			for _, prev := range out {
				seen[prev] = true
			}
			seen[id] = true
		}
		out = append(out, id)
	}
	return out
}

// appendRowKey appends the byte encoding of a projected ID row to buf:
// the key of the multi-column DISTINCT dedup.
func appendRowKey(buf []byte, ids []store.ID) []byte {
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return buf
}
