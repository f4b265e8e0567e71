// The gather view: the sparql.StoreView a sharded request executes
// over. Dictionary, statistics (cardinalities, term kinds) and rank
// reads serve from the pinned source snapshot — planning is
// byte-identical to a single store — and only the two triple-data
// reads scatter:
//
//   - subject-bound scans go to the single owning shard (subject
//     routing makes them one-shard reads);
//   - wildcard-subject scans scatter to every live shard concurrently
//     and k-way merge the sorted partials under the same per-case
//     comparator the store's own scan order defines. Subject sets are
//     disjoint across shards, so the merge has no cross-shard ties
//     and reproduces the single-store stream exactly;
//   - posting lists of (?, p, o) merge per-shard disjoint sorted
//     subject lists; subject-bound posting lists are owner reads.
//
// Failure policy is sticky per view. Fail-fast (default): the first
// shard failure latches an ErrUnavailable-wrapped error, every later
// data read returns empty immediately, and the pipeline surfaces
// Err() after extraction. Partial (WithPartialOK): a failed shard is
// marked skipped and contributes nothing for the rest of the request
// — exactly as if that shard were empty — and Outcome() reports the
// degraded shape the serving tier stamps on the wire. Either way a
// shard that failed once never serves a later read of the same
// request, so one request can never mix a shard's "present" and
// "absent" states. Nothing a view answers outlives its request: the
// plan cache the executor shares across requests holds shapes only,
// so a degraded view's reads can never be replayed for another.

package shard

import (
	"context"
	"sync"

	"repro/internal/rdf"
	"repro/internal/store"
)

// View is one request's pinned gather view. It satisfies
// sparql.StoreView; safe for concurrent use by the answer fan-out.
type View struct {
	c         *Cluster
	ctx       context.Context
	src       *store.Snapshot
	shards    []*store.Snapshot
	partialOK bool

	mu      sync.Mutex
	skipped []bool // partial mode: shards marked dead for this view
	err     error  // fail-fast mode: sticky ErrUnavailable
}

// Outcome is the shard-level shape of a request's answer, stamped on
// the trace and the wire response.
type Outcome struct {
	ShardsTotal    int
	ShardsAnswered int
	Degraded       bool
}

// Outcome reports how many shards answered this view's reads.
func (v *View) Outcome() Outcome {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := Outcome{ShardsTotal: len(v.shards), ShardsAnswered: len(v.shards)}
	for _, s := range v.skipped {
		if s {
			out.ShardsAnswered--
		}
	}
	if v.err != nil {
		out.Degraded = true // fail-fast views never reach the wire, but be honest
	}
	out.Degraded = out.Degraded || out.ShardsAnswered < out.ShardsTotal
	return out
}

// Err returns the sticky fail-fast error (nil in partial mode and on
// healthy views). The pipeline checks it after extraction and maps it
// to 503 + Retry-After.
func (v *View) Err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err
}

// --- coordinator-local reads (planning is single-store identical) ---

// Source returns the pinned source snapshot: the generation, dictionary
// and statistics the view plans against. Reading it makes no shard call.
func (v *View) Source() *store.Snapshot { return v.src }

// Lookup resolves a term against the coordinator dictionary.
func (v *View) Lookup(t rdf.Term) (store.ID, bool) { return v.src.Lookup(t) }

// TermsView returns the coordinator dictionary view.
func (v *View) TermsView() []rdf.Term { return v.src.TermsView() }

// TermRanks returns the coordinator's rank permutation.
func (v *View) TermRanks() ([]uint32, []store.ID) { return v.src.TermRanks() }

// EstimateCardinalityIDs answers from the coordinator statistics.
func (v *View) EstimateCardinalityIDs(pat [3]store.ID) int {
	return v.src.EstimateCardinalityIDs(pat)
}

// PredicateKinds answers from the coordinator statistics.
func (v *View) PredicateKinds(p store.ID) store.PredicateKinds { return v.src.PredicateKinds(p) }

// --- scattered data reads ---

// live reports whether shard i may serve this view.
func (v *View) live(i int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err == nil && !v.skipped[i]
}

// noteFailure applies the view's failure policy to a failed shard.
func (v *View) noteFailure(i int, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.partialOK {
		v.skipped[i] = true
		return
	}
	if v.err == nil {
		v.err = unavailableError(i, err)
	}
}

// call runs op on shard i through its failure domain. nil means the
// shard contributes nothing to this read: it had no match, it is dead
// for this view, or it just failed and the policy was applied.
func (v *View) call(i int, op shardOp) []store.ID {
	if !v.live(i) {
		return nil
	}
	res, err := v.c.domains[i].run(v.ctx, v.shards[i], op)
	if err != nil {
		v.noteFailure(i, err)
		return nil
	}
	return res
}

// owner runs op on the shard that owns subject s.
func (v *View) owner(s store.ID, op shardOp) []store.ID {
	return v.call(shardOf(s, len(v.shards)), op)
}

// scatter fans op out to every live shard concurrently — the caller's
// goroutine takes one shard itself — and returns the per-shard
// partials (nil for dead shards).
func (v *View) scatter(op shardOp) [][]store.ID {
	parts := make([][]store.ID, len(v.shards))
	one := func(i int) { parts[i] = v.call(i, op) }
	var wg sync.WaitGroup
	mine := -1
	for i := range v.shards {
		if !v.live(i) {
			continue
		}
		if mine >= 0 {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				one(i)
			}(mine)
		}
		mine = i
	}
	if mine >= 0 {
		one(mine)
	}
	wg.Wait()
	return parts
}

// ForEachMatchIDs streams pat's matches in the store's deterministic
// per-case order: owner-shard read when the subject is bound,
// concurrent scatter + ordered k-way merge otherwise.
func (v *View) ForEachMatchIDs(pat [3]store.ID, fn func(s, p, o store.ID) bool) {
	if pat[0] != 0 {
		emitFlat(v.owner(pat[0], shardOp{opScan, pat}), fn)
		return
	}
	mergeEmit(v.scatter(shardOp{opScan, pat}), caseLess(pat), fn)
}

// PostingList reproduces the store's posting-list surface: a merge of
// the shards' disjoint subject lists for (?, p, o), an owner read for
// the subject-bound shapes (a dead owner ≡ an empty shard). Unlike the
// snapshot's, the returned slice never aliases index memory.
func (v *View) PostingList(pat [3]store.ID) ([]store.ID, bool) {
	zeros := 0
	for _, x := range pat {
		if x == 0 {
			zeros++
		}
	}
	if zeros != 1 {
		return nil, false
	}
	if pat[0] != 0 {
		return v.owner(pat[0], shardOp{opPosting, pat}), true
	}
	return mergeSortedDisjoint(v.scatter(shardOp{opPosting, pat})), true
}

// --- merge machinery ---

// emitFlat replays a flat [s,p,o ...] buffer through fn.
func emitFlat(buf []store.ID, fn func(s, p, o store.ID) bool) {
	for i := 0; i+2 < len(buf); i += 3 {
		if !fn(buf[i], buf[i+1], buf[i+2]) {
			return
		}
	}
}

// caseLess returns the store's scan-order comparator for a
// wildcard-subject pattern case (see store.Snapshot.ForEachMatchIDs):
// (?,p,o) orders by subject; (?,p,?) by (object, subject); (?,?,o) by
// (subject, predicate); the full scan by ascending subject block.
// Cross-shard subject disjointness guarantees the compared keys never
// tie, which is what makes the merged stream byte-identical to the
// single store's.
func caseLess(pat [3]store.ID) func(a, b []store.ID) bool {
	switch {
	case pat[1] != 0 && pat[2] != 0: // (?, p, o): subjects ascending
		return func(a, b []store.ID) bool { return a[0] < b[0] }
	case pat[1] != 0: // (?, p, ?): object blocks, subjects within
		return func(a, b []store.ID) bool {
			if a[2] != b[2] {
				return a[2] < b[2]
			}
			return a[0] < b[0]
		}
	case pat[2] != 0: // (?, ?, o): subject blocks, predicates within
		return func(a, b []store.ID) bool {
			if a[0] != b[0] {
				return a[0] < b[0]
			}
			return a[1] < b[1]
		}
	default: // full scan: ascending subject blocks (disjoint per shard)
		return func(a, b []store.ID) bool { return a[0] < b[0] }
	}
}

// mergeEmit k-way merges flat per-shard partials under less and
// streams the winner triples to fn. Within one partial the order is
// already the store's; less only has to interleave across shards.
func mergeEmit(parts [][]store.ID, less func(a, b []store.ID) bool, fn func(s, p, o store.ID) bool) {
	idx := make([]int, len(parts))
	for {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best == -1 || less(p[idx[i]:idx[i]+3], parts[best][idx[best]:idx[best]+3]) {
				best = i
			}
		}
		if best == -1 {
			return
		}
		at := idx[best]
		idx[best] += 3
		t := parts[best][at : at+3]
		if !fn(t[0], t[1], t[2]) {
			return
		}
	}
}

// mergeSortedDisjoint merges sorted ID lists with pairwise-disjoint
// values into one sorted list. nil when every input is empty — the
// snapshot surface's "no matches" shape.
func mergeSortedDisjoint(parts [][]store.ID) []store.ID {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]store.ID, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best == -1 || p[idx[i]] < parts[best][idx[best]] {
				best = i
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}
