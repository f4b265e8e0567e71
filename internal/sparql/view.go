// The store-view abstraction the executor reads through.
//
// Every read the executor and its Session perform — constant
// resolution, dictionary views, term-rank permutations, index scans,
// posting lists, cardinality estimates, per-predicate term kinds —
// goes through the StoreView interface instead of a concrete
// *store.Snapshot. A single-process deployment still executes
// directly over a pinned snapshot (*store.Snapshot satisfies the
// interface with no adapter); the
// sharded scatter-gather tier (internal/shard) substitutes a gather
// view that keeps dictionary and statistics reads coordinator-local
// and scatters only the triple-data reads to shards. The executor
// cannot tell the difference: a view must provide the same frozen,
// immutable semantics a snapshot does — identical answers for the
// lifetime of the view, deterministic scan order per pattern case —
// which is what keeps every differential oracle (session ≡ fresh,
// plan-cache ≡ fresh-compile, N-shard ≡ single-store) meaningful.
// Nothing computed over a view outlives its Session — the plan cache
// shared across sessions holds shapes, which read no view — so a view
// carries no identity and no cache can confuse two views.

package sparql

import (
	"repro/internal/rdf"
	"repro/internal/store"
)

// StoreView is the frozen read surface one Session executes over. All
// methods must be safe for concurrent use and answer identically for
// the lifetime of the view (snapshot semantics). *store.Snapshot is
// the canonical implementation; internal/shard's gather view is the
// distributed one.
type StoreView interface {
	// Lookup resolves a term to its dictionary ID.
	Lookup(t rdf.Term) (store.ID, bool)
	// TermsView returns the read-only dictionary view: TermsView()[id-1]
	// is the term for id.
	TermsView() []rdf.Term
	// TermRanks returns the term-rank permutation (see
	// store.Snapshot.TermRanks for the contract).
	TermRanks() (ranks []uint32, order []store.ID)
	// ForEachMatchIDs streams the matches of an ID pattern (0 =
	// wildcard) in the snapshot's deterministic per-case scan order.
	ForEachMatchIDs(pat [3]store.ID, fn func(s, p, o store.ID) bool)
	// EstimateCardinalityIDs returns the exact match count of an ID
	// pattern in O(1).
	EstimateCardinalityIDs(pat [3]store.ID) int
	// PostingList returns the sorted free-position posting list of a
	// two-bound pattern (see store.Snapshot.PostingList).
	PostingList(pat [3]store.ID) ([]store.ID, bool)
	// PredicateKinds returns the exact counts of a predicate's subjects
	// and objects by rdf.ValueKind (see store.Snapshot.PredicateKinds):
	// a statistic, so the gather view answers it coordinator-local, like
	// EstimateCardinalityIDs.
	PredicateKinds(p store.ID) store.PredicateKinds
}

// interface conformance: the canonical single-store view.
var _ StoreView = (*store.Snapshot)(nil)
