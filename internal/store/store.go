// Package store provides the in-memory RDF triple store the question
// answering pipeline queries. It plays the role DBpedia's public SPARQL
// endpoint plays in the paper.
//
// Terms are dictionary-encoded to 32-bit IDs; triples are kept in three
// permutation indexes (SPO, POS, OSP) so that every wildcard combination
// of a triple pattern resolves to an index scan. The term→ID dictionary
// is a fourth index of the same type, keyed by term hash, so the store
// has one persistent structure.
//
// # Wait-free snapshot reads
//
// The store is structured as an immutable Snapshot published through an
// atomic pointer. A Store is the writer; every read is a Snapshot
// method. Readers pin the current snapshot with a single atomic load
// (Store.Snapshot) and then scan plain immutable memory: no RWMutex, no
// lock-step with writers, no stalls behind bulk loads. A pinned snapshot stays valid
// and self-consistent forever — a long 3-pattern join sees either all
// or none of a concurrent AddAll batch, never a half-applied one.
//
// Writers serialise on a mutex and build the next snapshot by
// copy-on-write, folding the whole batch in once, at commit. Each index
// is a radix tree of 64-slot nodes over the first-position ID, whose
// leaves point to buckets; a bucket is three sorted, pointer-free
// arrays (keys, list offsets, the lists' IDs end to end) cut from one
// allocation and found by binary search. A write call records its
// triple operations and the terms it adds, settles the operations in
// order against the snapshot it began on, then sorts the net edits per
// index and rebuilds every bucket they touch once, by a linear merge,
// copying each node on the path to it once. Untouched buckets and nodes
// stay shared, and the write path never edits an array in place, so a
// write that adds a term costs the path to one dictionary bucket,
// whatever the size of the dictionary. An update_mix flip (8 deletes
// and 8 inserts on a predicate with 512 objects, at 6.5k triples)
// costs about 14.0 KB in 35 allocations, most of it the rebuilt
// 512-key POS bucket; on 16 times the triples, a level deeper, about
// 15.6 KB. A batch costs O(n log n + the buckets it touches), so
// anything in a loop belongs in one AddAll, ApplyBatch or Batch, which
// rebuild each bucket once.
// The new root is published once per public write call, giving readers
// atomic batch visibility. Old snapshots are reclaimed by the garbage
// collector once the last reader drops them.
//
// AddAll and ApplyBatch take rdf.Triples from parsers and requests and
// intern every term of every triple. Store.Batch is the writer in ID
// space, for callers that build their contents themselves: its Batch
// interns a term once and adds triples by the IDs their terms got. The
// built-in KB (internal/kb) and the shards of internal/shard are built
// through it.
//
// # Two-layer execution model
//
// A Snapshot exposes two query surfaces. The term-space API (Match,
// ForEachMatch, Subjects, Objects) accepts
// rdf.Triple patterns and yields full rdf.Term triples; it is the
// convenient surface for boot-time builders that need a handful of
// lookups. The
// ID-space API (ForEachMatchIDs, HasIDs, EstimateCardinalityIDs,
// PostingList) works entirely on dictionary IDs and never materialises
// terms; the SPARQL executor runs on it — pinning one Snapshot per
// query — and converts IDs back to terms only when projecting final
// results (late materialization). TermsView exposes the dictionary as
// an immutable slice so that conversion needs no locks.
//
// A published snapshot holds no cache a reader fills in: a bucket's
// triple count is the length of its ID array, so a reader of a bucket
// only ever reads it.
//
// # Predicate kinds
//
// Beside the indexes, a snapshot counts each predicate's triples by the
// rdf.ValueKind (IRI, blank node, date, numeric, other literal) of
// their subject and of their object: Snapshot.PredicateKinds. The
// answer stage reads it to skip a candidate query whose rows §2.3.2's
// type filter must all reject. Commit moves the counts by the net edits
// it has just sorted into POS order, so a batch with triple edits
// copies the table (one 44-byte row a predicate) once and classifies
// each term it adds or removes; every writer — AddAll, ApplyBatch,
// Batch and Load — goes through it.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
)

// ID is a dictionary-encoded term identifier. The zero ID is reserved and
// never assigned, so ID(0) doubles as the wildcard in ID-space patterns
// and the "unbound" marker in executor binding rows.
type ID uint32

const (
	// nodeBits sizes the four index radix trees (SPO, POS, OSP and the
	// dictionary): every interior node and leaf has 2^nodeBits slots,
	// so a write batch clones 64 pointers per level on the path to each
	// leaf it touches.
	nodeBits = 6
	nodeSize = 1 << nodeBits
	nodeMask = nodeSize - 1

	// dictShift splits a term hash for the dictionary index: its top 12
	// bits are the first position, so the dictionary tree is one
	// interior level over 4096 buckets, and the whole hash is the key.
	dictShift = 20
)

// bucket is one first-position entry of an index: the third-position
// ID lists keyed by second-position ID, in three pointer-free arrays
// cut from one allocation. keys is sorted and unique, len(offs) ==
// len(keys)+1, and the list under keys[i] is ids[offs[i]:offs[i+1]],
// sorted and unique. A published bucket is immutable and never empty;
// a write batch replaces it whole.
type bucket struct {
	keys []ID
	offs []ID // positions in ids, typed ID to share the keys' array
	ids  []ID
}

// list returns the IDs under keys[i], capacity-clipped.
func (bk *bucket) list(i int) []ID {
	lo, hi := bk.offs[i], bk.offs[i+1]
	return bk.ids[lo:hi:hi]
}

// leaf is the bottom level of an index tree: the buckets of 64
// consecutive first-position IDs.
type leaf [nodeSize]*bucket

// node is one interior level of an index tree: a node at height 1
// holds leaves, one above it holds nodes, and the other array is nil.
// Each array is a single 512-byte object.
type node struct {
	kids   *[nodeSize]*node
	leaves *[nodeSize]*leaf
}

// index is one of the three triple permutations (SPO/POS/OSP), or the
// dictionary (hash>>dictShift, hash, the IDs of the terms with that
// hash): a radix tree over the first-position ID, with height interior
// levels above the leaves, so it covers the IDs below 64^(height+1) and
// grows a level when an edit lies beyond it. A lookup is one array
// indexation per level, and a full walk is in ascending ID order.
// Published nodes and leaves are immutable: a write batch copies the
// path to each leaf it touches, once, and shares the rest.
type index struct {
	root   *node
	height uint
}

// bucketFor returns the bucket for first-position id (nil when absent).
func (ix *index) bucketFor(id ID) *bucket {
	n := ix.root
	if n == nil || uint64(id)>>(nodeBits*(ix.height+1)) != 0 {
		return nil
	}
	for sh := nodeBits * ix.height; sh > nodeBits; sh -= nodeBits {
		if n = n.kids[id>>sh&nodeMask]; n == nil {
			return nil
		}
	}
	lf := n.leaves[id>>nodeBits&nodeMask]
	if lf == nil {
		return nil
	}
	return lf[id&nodeMask]
}

// list returns the third-position IDs at [a][b] (nil when absent).
func (ix *index) list(a, b ID) []ID {
	bk := ix.bucketFor(a)
	if bk == nil {
		return nil
	}
	if i, ok := slices.BinarySearch(bk.keys, b); ok {
		return bk.list(i)
	}
	return nil
}

// forEachBucket streams the (firstID, bucket) pairs in ascending
// first-ID order; fn returning false stops early.
func (ix *index) forEachBucket(fn func(id ID, bk *bucket) bool) {
	if ix.root != nil {
		ix.root.walk(ix.height, 0, fn)
	}
}

// walk streams the buckets under n, a node at height h whose first ID
// is base, reporting whether fn asked to go on.
func (n *node) walk(h uint, base ID, fn func(id ID, bk *bucket) bool) bool {
	for i := ID(0); i < nodeSize; i++ {
		at := base | i<<(nodeBits*h)
		if h > 1 {
			if kid := n.kids[i]; kid != nil && !kid.walk(h-1, at, fn) {
				return false
			}
			continue
		}
		lf := n.leaves[i]
		if lf == nil {
			continue
		}
		for j, bk := range lf {
			if bk != nil && !fn(at|ID(j), bk) {
				return false
			}
		}
	}
	return true
}

// termHash is the dictionary key of a term: FNV-1a over its fields.
func termHash(t rdf.Term) uint32 {
	h := uint32(2166136261)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= 16777619
		}
		h ^= 0xff
		h *= 16777619
	}
	mix(t.Value)
	mix(t.Datatype)
	mix(t.Lang)
	h ^= uint32(t.Kind)
	h *= 16777619
	return h
}

// rankTable is the lazily built term-rank permutation of one snapshot
// generation: the dictionary IDs sorted by rdf.Term.Compare order, and
// the inverse mapping from ID to sort rank. It hangs off the Snapshot
// as a plain pointer (writers copy Snapshot by value, so the box must
// be copyable) and is built at most once per generation via the
// sync.Once; every session pinning the snapshot shares the build.
//
// Tables chain: a dictionary-growing commit links the new snapshot's
// (empty) table to the previous snapshot's via prev/baseTerms. If the
// previous table was ever built, TermRanks sorts only the new-ID
// suffix and merges it into the existing permutation instead of
// re-sorting the whole dictionary — under sustained update churn the
// per-write cost is O(new·log new + dict) instead of
// O(dict·log dict) with full term comparisons. The chain depth is
// capped (maxRankChain) so a long run of never-ranked writes cannot
// accumulate unbounded table boxes, and a built table drops its prev
// link to release the chain behind it.
type rankTable struct {
	once      sync.Once
	data      atomic.Pointer[rankData]
	prev      *rankTable // previous generation's table; nil for roots, cleared after build
	baseTerms int        // dictionary length the prev table covers
	depth     int        // chain length from the nearest root; bounded by maxRankChain
}

// rankData is the built permutation, published atomically so a later
// generation's merge can read a finished build without touching the
// owning table's once.
type rankData struct {
	ranks []uint32 // ranks[id-1] = position of id's term in sort order
	order []ID     // order[rank] = id; the inverse permutation
}

// maxRankChain bounds the prev-chain length of unbuilt rank tables: a
// commit that would chain deeper starts a fresh root (full rebuild on
// first use) so churn without intervening TermRanks calls cannot
// accumulate unbounded boxes.
const maxRankChain = 32

// Snapshot is an immutable, self-consistent view of the store at one
// write batch boundary. Pin one with Store.Snapshot and read it for as
// long as needed — concurrent writers never mutate it and never wait
// for it; they publish new snapshots alongside. All methods are safe
// for arbitrary concurrent use.
type Snapshot struct {
	dict    index      // term hash → the IDs of the terms with that hash
	inverse []rdf.Term // inverse[id-1] = term; shared append-only backing
	spo     index
	pos     index
	osp     index
	size    int
	gen     uint64
	ranks   *rankTable  // fresh (empty) box per published generation
	kinds   []predKinds // each predicate's subjects and objects by kind, sorted by predicate
}

// KindCounts counts terms by value kind: element k is the number of
// them whose rdf.Term.ValueKind is k.
type KindCounts [rdf.NumValueKinds]uint32

// PredicateKinds counts one predicate's triples (s, p, o) by the value
// kind of s and by that of o.
type PredicateKinds struct {
	Subjects, Objects KindCounts
}

// predKinds is one row of a snapshot's kind table. A predicate with no
// triples has no row.
type predKinds struct {
	p     ID
	kinds PredicateKinds
}

// Store is an indexed, dictionary-encoded triple store with wait-free
// snapshot reads. The zero value is not usable; call New. It has four
// writers: AddAll and ApplyBatch take terms, Batch takes IDs, and
// SetGen moves the generation.
type Store struct {
	wmu  sync.Mutex // serialises writers
	snap atomic.Pointer[Snapshot]
	gen  uint64 // last allocated batch generation; guarded by wmu
}

// New returns an empty store.
func New() *Store {
	s := &Store{}
	s.snap.Store(&Snapshot{ranks: &rankTable{}})
	return s
}

// Load returns a store holding exactly the given dictionary and ID
// triples, published once at generation gen: terms[i] gets ID i+1 and
// the triples are indexed by those IDs as given, so a snapshot written
// out as its TermsView and its ID triples comes back with every ID it
// had. This is how a WAL segment (internal/wal) is recovered. An ID
// outside the dictionary, a duplicate term or triple, and contents at
// generation 0 (the empty store's) are errors.
func Load(gen uint64, terms []rdf.Term, triples [][3]ID) (*Store, error) {
	s := New()
	if gen == 0 {
		if len(terms) > 0 || len(triples) > 0 {
			return nil, fmt.Errorf("store: contents at generation 0")
		}
		return s, nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.gen = gen - 1 // begin allocates gen itself
	w := s.begin(len(triples))
	for _, t := range terms {
		w.intern(t)
	}
	if len(w.next.inverse) != len(terms) { // a duplicate would shift every later ID
		return nil, fmt.Errorf("store: dictionary contains duplicate terms")
	}
	n := ID(len(terms))
	bad := -1
	for i, tr := range triples {
		if tr[0] == 0 || tr[1] == 0 || tr[2] == 0 || tr[0] > n || tr[1] > n || tr[2] > n {
			bad = i
			break
		}
		w.record(tr[0], tr[1], tr[2], false)
	}
	w.dirty = true // an empty store keeps its generation too
	if _, _, dup := s.commit(w); dup >= 0 {
		return nil, fmt.Errorf("store: triple %d is a duplicate", dup)
	}
	if bad >= 0 {
		return nil, fmt.Errorf("store: triple %d references a term ID outside 1..%d", bad, n)
	}
	return s, nil
}

// Snapshot pins the current immutable read view: one atomic load, no
// locks. The returned snapshot never changes, so every read through it
// sees one generation for as long as the caller holds it.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// --- Snapshot read surface ---

// Len returns the number of distinct triples in the snapshot.
func (sn *Snapshot) Len() int { return sn.size }

// TermCount returns the number of distinct terms in the dictionary.
func (sn *Snapshot) TermCount() int { return len(sn.inverse) }

// Gen returns the write-batch generation this snapshot was published
// at (0 for the empty store). Generations increase monotonically (a
// no-op write call may skip numbers without publishing) and equal
// generations imply identical contents.
func (sn *Snapshot) Gen() uint64 { return sn.gen }

// Lookup returns the ID of t if it is in the dictionary. The terms that
// share t's hash are compared in ID order.
func (sn *Snapshot) Lookup(t rdf.Term) (ID, bool) { return sn.lookup(t, termHash(t)) }

// lookup is Lookup of t, whose hash is h.
func (sn *Snapshot) lookup(t rdf.Term, h uint32) (ID, bool) {
	for _, id := range sn.dict.list(ID(h>>dictShift), ID(h)) {
		if sn.inverse[id-1] == t {
			return id, true
		}
	}
	return 0, false
}

// Term returns the term for an ID. It returns a zero term for unknown IDs.
func (sn *Snapshot) Term(id ID) rdf.Term {
	if id == 0 || int(id) > len(sn.inverse) {
		return rdf.Term{}
	}
	return sn.inverse[id-1]
}

// TermsView returns a read-only view of the dictionary: TermsView()[id-1]
// is the term for id. The dictionary is append-only and terms are
// immutable, so the view stays valid for the IDs it covers even as the
// store grows; callers must not modify it. This is the lock-free lookup
// surface the SPARQL executor materialises final results through.
func (sn *Snapshot) TermsView() []rdf.Term {
	return sn.inverse[:len(sn.inverse):len(sn.inverse)]
}

// TermRanks returns the snapshot's term-rank permutation: ranks[id-1]
// is the position of id's term in the rdf.Term.Compare order of the
// whole dictionary, and order[r] maps a rank back to its ID. Because
// Compare is a strict total order on distinct terms (it returns 0 only
// for identical terms) and the dictionary never interns a term twice,
// distinct IDs always receive distinct ranks — comparing ranks as
// integers is exactly comparing the terms, which is what lets the
// SPARQL executor sort result rows without materialising a single
// term. The table is built lazily, once per snapshot generation; every
// session pinning the snapshot shares the build (the sync.Once
// publishes the slices with the necessary happens-before edge). Both
// slices are immutable and must not be modified.
func (sn *Snapshot) TermRanks() (ranks []uint32, order []ID) {
	rt := sn.ranks
	rt.once.Do(func() {
		inv := sn.inverse[:len(sn.inverse):len(sn.inverse)]
		var base *rankData
		if rt.prev != nil {
			base = rt.prev.data.Load() // nil when the previous table was never built
			rt.prev = nil              // release the chain; only base is needed below
		}
		ord := buildRankOrder(inv, base, rt.baseTerms)
		rk := make([]uint32, len(inv))
		for r, id := range ord {
			rk[id-1] = uint32(r)
		}
		rt.data.Store(&rankData{ranks: rk, order: ord})
	})
	d := rt.data.Load()
	return d.ranks, d.order
}

// buildRankOrder computes the sorted-ID permutation for a dictionary.
// With a built base table covering the first baseTerms IDs it sorts
// only the new-ID suffix and two-way merges it into the base order;
// otherwise it falls back to the full sort. Compare is a strict total
// order on distinct terms, so the merge never sees a tie and the
// result is identical to the full sort.
func buildRankOrder(inv []rdf.Term, base *rankData, baseTerms int) []ID {
	if base == nil {
		ord := make([]ID, len(inv))
		for i := range ord {
			ord[i] = ID(i + 1)
		}
		sort.Slice(ord, func(a, b int) bool {
			return inv[ord[a]-1].Compare(inv[ord[b]-1]) < 0
		})
		return ord
	}
	suffix := make([]ID, len(inv)-baseTerms)
	for i := range suffix {
		suffix[i] = ID(baseTerms + i + 1)
	}
	sort.Slice(suffix, func(a, b int) bool {
		return inv[suffix[a]-1].Compare(inv[suffix[b]-1]) < 0
	})
	ord := make([]ID, 0, len(inv))
	bo := base.order
	i, j := 0, 0
	for i < len(bo) && j < len(suffix) {
		if inv[bo[i]-1].Compare(inv[suffix[j]-1]) < 0 {
			ord = append(ord, bo[i])
			i++
		} else {
			ord = append(ord, suffix[j])
			j++
		}
	}
	ord = append(ord, bo[i:]...)
	ord = append(ord, suffix[j:]...)
	return ord
}

// patternIDs resolves the bound terms of pat to IDs through lookup, with
// ID(0) for wildcards. The bool result is false when a bound term is
// not in the dictionary (the pattern can match nothing).
func patternIDs(pat rdf.Triple, lookup func(rdf.Term) (ID, bool)) ([3]ID, bool) {
	var ids [3]ID
	for i, t := range [3]rdf.Term{pat.S, pat.P, pat.O} {
		if t.IsZero() || t.IsVar() {
			continue
		}
		id, ok := lookup(t)
		if !ok {
			return ids, false
		}
		ids[i] = id
	}
	return ids, true
}

// HasIDs reports whether the triple (s, p, o) is present, by ID.
func (sn *Snapshot) HasIDs(sid, pid, oid ID) bool {
	_, ok := slices.BinarySearch(sn.spo.list(sid, pid), oid)
	return ok
}

// ForEachMatchIDs streams the ID triples matching pat to fn in
// deterministic (sorted-ID) order; ID(0) acts as the wildcard and fn
// returning false stops the iteration early. No terms are materialised.
func (sn *Snapshot) ForEachMatchIDs(pat [3]ID, fn func(s, p, o ID) bool) {
	sid, pid, oid := pat[0], pat[1], pat[2]
	switch {
	case sid != 0 && pid != 0 && oid != 0: // fully ground: existence check
		if sn.HasIDs(sid, pid, oid) {
			fn(sid, pid, oid)
		}
	case sid != 0 && pid != 0: // S P ? -> spo[s][p]
		for _, o := range sn.spo.list(sid, pid) {
			if !fn(sid, pid, o) {
				return
			}
		}
	case pid != 0 && oid != 0: // ? P O -> pos[p][o]
		for _, sub := range sn.pos.list(pid, oid) {
			if !fn(sub, pid, oid) {
				return
			}
		}
	case sid != 0 && oid != 0: // S ? O -> osp[o][s]
		for _, p := range sn.osp.list(oid, sid) {
			if !fn(sid, p, oid) {
				return
			}
		}
	case sid != 0: // S ? ? -> scan spo[s]
		bk := sn.spo.bucketFor(sid)
		if bk == nil {
			return
		}
		for i, p := range bk.keys {
			for _, o := range bk.list(i) {
				if !fn(sid, p, o) {
					return
				}
			}
		}
	case pid != 0: // ? P ? -> scan pos[p]
		bk := sn.pos.bucketFor(pid)
		if bk == nil {
			return
		}
		for i, o := range bk.keys {
			for _, sub := range bk.list(i) {
				if !fn(sub, pid, o) {
					return
				}
			}
		}
	case oid != 0: // ? ? O -> scan osp[o]
		bk := sn.osp.bucketFor(oid)
		if bk == nil {
			return
		}
		for i, sub := range bk.keys {
			for _, p := range bk.list(i) {
				if !fn(sub, p, oid) {
					return
				}
			}
		}
	default: // full scan, ascending subject ID (tree order)
		sn.spo.forEachBucket(func(sub ID, bk *bucket) bool {
			for i, p := range bk.keys {
				for _, o := range bk.list(i) {
					if !fn(sub, p, o) {
						return false
					}
				}
			}
			return true
		})
	}
}

// ForEachMatch streams the triples matching pat to fn in deterministic
// order; fn returning false stops the iteration early. This is the
// term-space surface: it materialises an rdf.Triple per match. Hot paths
// that do not need terms should use ForEachMatchIDs instead.
func (sn *Snapshot) ForEachMatch(pat rdf.Triple, fn func(rdf.Triple) bool) {
	ids, ok := patternIDs(pat, sn.Lookup)
	if !ok {
		return // a bound term not in the dictionary matches nothing
	}
	inv := sn.inverse
	sn.ForEachMatchIDs(ids, func(a, b, c ID) bool {
		return fn(rdf.Triple{S: inv[a-1], P: inv[b-1], O: inv[c-1]})
	})
}

// Match returns all triples matching the pattern; nil (zero) or variable
// terms act as wildcards. The result order is deterministic.
func (sn *Snapshot) Match(pat rdf.Triple) []rdf.Triple {
	var out []rdf.Triple
	sn.ForEachMatch(pat, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// EstimateCardinalityIDs returns an upper-bound estimate of the number
// of matches for the ID pattern (ID(0) is the wildcard), used by the
// SPARQL executor to order joins. It never materialises results. The
// indexes hold sorted, unique triples, so the computation is exact.
func (sn *Snapshot) EstimateCardinalityIDs(pat [3]ID) int {
	sid, pid, oid := pat[0], pat[1], pat[2]
	sum := func(ix *index, key ID) int {
		bk := ix.bucketFor(key)
		if bk == nil {
			return 0
		}
		return len(bk.ids)
	}
	switch {
	case sid != 0 && pid != 0 && oid != 0:
		if sn.HasIDs(sid, pid, oid) {
			return 1
		}
		return 0
	case sid != 0 && pid != 0:
		return len(sn.spo.list(sid, pid))
	case pid != 0 && oid != 0:
		return len(sn.pos.list(pid, oid))
	case sid != 0 && oid != 0:
		return len(sn.osp.list(oid, sid))
	case sid != 0:
		return sum(&sn.spo, sid)
	case pid != 0:
		return sum(&sn.pos, pid)
	case oid != 0:
		return sum(&sn.osp, oid)
	default:
		return sn.size
	}
}

// PredicateKinds returns the counts of p's triples by the value kind of
// their subject and of their object; all zero when p is the predicate
// of no triple. The counts are exact for the snapshot: every write
// batch folds its net edits into them at commit.
func (sn *Snapshot) PredicateKinds(p ID) PredicateKinds {
	if i, ok := slices.BinarySearchFunc(sn.kinds, p, comparePredKinds); ok {
		return sn.kinds[i].kinds
	}
	return PredicateKinds{}
}

func comparePredKinds(r predKinds, p ID) int { return cmp.Compare(r.p, p) }

// PostingList returns the sorted, unique ID list for a pattern with
// exactly one wildcard position: the subjects of (?, p, o), the objects
// of (s, p, ?) or the predicates of (s, ?, o). The second result is
// false when the pattern does not have exactly one wildcard. The
// returned slice aliases the snapshot's immutable index memory — it is
// valid for as long as the snapshot is pinned, costs nothing to obtain,
// and MUST NOT be modified (its capacity is clipped so an append cannot
// clobber index state). A nil slice with ok=true means the pattern has
// no matches. This is the surface the SPARQL executor's sorted-ID
// merge/galloping intersections are built on.
func (sn *Snapshot) PostingList(pat [3]ID) (ids []ID, ok bool) {
	sid, pid, oid := pat[0], pat[1], pat[2]
	var lst []ID
	switch {
	case sid == 0 && pid != 0 && oid != 0:
		lst = sn.pos.list(pid, oid)
	case sid != 0 && pid != 0 && oid == 0:
		lst = sn.spo.list(sid, pid)
	case sid != 0 && pid == 0 && oid != 0:
		lst = sn.osp.list(oid, sid)
	default:
		return nil, false
	}
	return lst[:len(lst):len(lst)], true
}

// Subjects returns the subjects of triples with the given predicate and
// object, in ascending ID order.
func (sn *Snapshot) Subjects(p, o rdf.Term) []rdf.Term {
	var out []rdf.Term
	sn.ForEachMatch(rdf.Triple{P: p, O: o}, func(t rdf.Triple) bool {
		out = append(out, t.S)
		return true
	})
	return out
}

// Objects returns the objects of triples with the given subject and
// predicate, in ascending ID order.
func (sn *Snapshot) Objects(sub, p rdf.Term) []rdf.Term {
	var out []rdf.Term
	sn.ForEachMatch(rdf.Triple{S: sub, P: p}, func(t rdf.Triple) bool {
		out = append(out, t.O)
		return true
	})
	return out
}

// Triples returns every triple in the snapshot in deterministic order.
func (sn *Snapshot) Triples() []rdf.Triple { return sn.Match(rdf.Triple{}) }

// --- The four reads left on Store ---
//
// Every read belongs on a pinned *Snapshot. These four remain only
// because cmd/qaload, the load generator and a module of its own,
// compiles against them; they go when it reads through a Snapshot.

// Len is Snapshot.Len on the current snapshot. It exists only because
// cmd/qaload calls it (main.go:439, qaload_test.go).
func (s *Store) Len() int { return s.Snapshot().Len() }

// TermCount is Snapshot.TermCount on the current snapshot. It exists
// only because cmd/qaload calls it (qaload_test.go:193–198).
//
//qalint:ignore unusedexport cmd/qaload's tests call it, and that module changes only with the benchmark.
func (s *Store) TermCount() int { return s.Snapshot().TermCount() }

// Triples is Snapshot.Triples on the current snapshot. It exists only
// because cmd/qaload calls it (qaload_test.go:179–190).
//
//qalint:ignore unusedexport cmd/qaload's tests call it, and that module changes only with the benchmark.
func (s *Store) Triples() []rdf.Triple { return s.Snapshot().Triples() }

// Subjects is Snapshot.Subjects on the current snapshot. It exists only
// because cmd/qaload calls it (workload.go:84).
func (s *Store) Subjects(p, o rdf.Term) []rdf.Term { return s.Snapshot().Subjects(p, o) }

// --- Write path: batches folded into the indexes at commit ---

// writer builds the next snapshot for one write batch. A new term gets
// its ID as it comes and waits in fresh; triple operations are only
// recorded. commit folds the fresh terms into the dictionary index and
// the operations' net effect into the triple indexes, in one pass
// each. Callers hold Store.wmu throughout.
type writer struct {
	next  Snapshot
	gen   uint64
	dirty bool
	// The terms the batch adds, the dictionary's last len(fresh) IDs:
	// byHash holds the last of them with each hash, and fresh their
	// hashes and hash chains in ID order.
	byHash map[uint32]ID
	fresh  []freshTerm
	ops    []edit // the batch's triple operations, in SPO order as (a, b, c)

	// Scratch of the counting passes (see sort and rotate).
	tmp   []edit
	count []uint32
}

// freshTerm is a term a write batch adds: its hash, and the ID of the
// batch's previous term with that hash (0 when there is none).
type freshTerm struct {
	hash uint32
	prev ID
}

// edit is one triple operation of a write batch, its IDs permuted into
// an index's order as (a, b, c). seq is the operation's position in the
// batch and del marks a deletion.
type edit struct {
	a, b, c ID
	seq     uint32
	del     bool
}

// compareEdits orders edits by triple, then by position in the batch.
func compareEdits(x, y edit) int {
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	if c := cmp.Compare(x.b, y.b); c != 0 {
		return c
	}
	if c := cmp.Compare(x.c, y.c); c != 0 {
		return c
	}
	return cmp.Compare(x.seq, y.seq)
}

// key returns the edit's ID at position f (0, 1 or 2: a, b or c).
func (e edit) key(f int) ID {
	switch f {
	case 0:
		return e.a
	case 1:
		return e.b
	}
	return e.c
}

// counting reports whether n edits are sorted by counting passes over
// the dense IDs: when the batch is large next to the dictionary, each
// pass is O(n + terms); otherwise a comparison sort is cheaper.
func (w *writer) counting(n int) bool {
	return n >= 64 && len(w.next.inverse) <= 4*n
}

// scratch returns n edits of the batch's scratch array, which the
// counting sort and rotate reuse across a commit.
func (w *writer) scratch(n int) []edit {
	if len(w.tmp) < n {
		w.tmp = make([]edit, n)
	}
	return w.tmp[:n]
}

// countingPass writes src to dst stably ordered by each edit's ID at
// position f, rotating each edit from (a, b, c) to (c, a, b) on the way
// when rot is set.
func (w *writer) countingPass(dst, src []edit, f int, rot bool) {
	terms := len(w.next.inverse)
	if len(w.count) < terms+1 {
		w.count = make([]uint32, terms+1)
	}
	count := w.count[:terms+1]
	clear(count)
	for _, e := range src {
		count[e.key(f)]++
	}
	var at uint32
	for id, n := range count {
		count[id] = at
		at += n
	}
	for _, e := range src {
		k := e.key(f)
		if rot {
			e = e.rotated()
		}
		dst[count[k]] = e
		count[k]++
	}
}

// rotated returns the edit with its IDs rotated from (a, b, c) to
// (c, a, b): an SPO edit becomes OSP, and an OSP edit POS.
func (e edit) rotated() edit { return edit{a: e.c, b: e.a, c: e.b, del: e.del} }

// sort orders edits as compareEdits does: by comparison, or on the
// counting path by three stable passes (c, then b, then a), which keep
// a triple's edits in batch order.
func (w *writer) sort(edits []edit) {
	if !w.counting(len(edits)) {
		slices.SortFunc(edits, compareEdits)
		return
	}
	src, dst := edits, w.scratch(len(edits))
	for f := 2; f >= 0; f-- {
		w.countingPass(dst, src, f, false)
		src, dst = dst, src
	}
	copy(edits, src)
}

// rotate fills dst with the net edits of src, sorted by (a, b, c),
// rotated to (c, a, b) and sorted in that order: SPO becomes OSP, and
// OSP becomes POS. Since src is sorted, the counting path needs one
// stable pass on the new first position.
func (w *writer) rotate(dst, src []edit) {
	if !w.counting(len(src)) {
		for i, e := range src {
			dst[i] = e.rotated()
		}
		slices.SortFunc(dst, compareEdits)
		return
	}
	w.countingPass(dst, src, 2, true)
}

// begin opens a write batch expecting about n triple operations.
// Caller holds wmu.
func (s *Store) begin(n int) *writer {
	s.gen++
	return &writer{next: *s.snap.Load(), gen: s.gen, ops: make([]edit, 0, n)}
}

// commit settles the batch's operations, folds them and the fresh
// terms into the indexes and publishes the batch if it changed
// anything. It returns the triples added and removed, and dup: the
// position of the first insert whose triple was already present, or
// -1. Caller holds wmu.
func (s *Store) commit(w *writer) (added, removed, dup int) {
	added, removed, dup = w.resolve()
	w.fold()
	if !w.dirty {
		return added, removed, dup
	}
	w.next.gen = w.gen
	if len(w.fresh) > 0 {
		// The batch grew the dictionary: chain a fresh rank box to the
		// previous one so the next TermRanks call can merge the sorted
		// new-ID suffix into an already-built permutation instead of
		// re-sorting the whole dictionary. Past the depth cap start a
		// detached root (full rebuild on first use) to bound memory.
		old := w.next.ranks
		if old.depth+1 > maxRankChain {
			w.next.ranks = &rankTable{}
		} else {
			w.next.ranks = &rankTable{prev: old, baseTerms: len(w.next.inverse) - len(w.fresh), depth: old.depth + 1}
		}
	}
	// A batch that left the dictionary unchanged keeps sharing the old
	// box: identical terms have identical ranks, so the permutation is
	// built at most once across those generations. (SetGen's republish
	// shares the box for the same reason.)
	sn := w.next
	s.snap.Store(&sn)
	return added, removed, dup
}

// record appends one triple operation to the batch.
func (w *writer) record(sid, pid, oid ID, del bool) {
	w.ops = append(w.ops, edit{a: sid, b: pid, c: oid, seq: uint32(len(w.ops)), del: del})
}

// resolve settles the recorded operations in batch order against the
// snapshot the batch began on: an insert of a present triple and a
// delete of an absent one change nothing, and later operations see
// earlier ones. It leaves w.ops holding the batch's net edits, sorted
// in SPO order, and counts what the operations did.
func (w *writer) resolve() (added, removed, dup int) {
	dup = -1
	ops := w.ops
	w.sort(ops)
	net := ops[:0] // written behind the read position
	for i := 0; i < len(ops); {
		e := ops[i]
		was := w.next.HasIDs(e.a, e.b, e.c) // the indexes are the begin snapshot's
		in := was
		for ; i < len(ops) && ops[i].a == e.a && ops[i].b == e.b && ops[i].c == e.c; i++ {
			switch op := ops[i]; {
			case op.del && in:
				in = false
				removed++
			case !op.del && !in:
				in = true
				added++
			case !op.del && (dup < 0 || int(op.seq) < dup):
				dup = int(op.seq)
			}
		}
		if in != was {
			net = append(net, edit{a: e.a, b: e.b, c: e.c, del: was})
		}
	}
	w.ops = net
	w.next.size += added - removed
	if added+removed > 0 {
		w.dirty = true
	}
	return added, removed, dup
}

// fold applies the fresh terms to the dictionary and the net edits to
// the three triple indexes: each touched bucket is rebuilt once and each
// node on the path to it cloned once.
func (w *writer) fold() {
	if len(w.fresh) > 0 {
		// Hashes are not dense, so the fresh terms are sorted by
		// comparison, packed as hash<<32|id.
		base := len(w.next.inverse) - len(w.fresh)
		keys := make([]uint64, len(w.fresh))
		for i, f := range w.fresh {
			keys[i] = uint64(f.hash)<<32 | uint64(base+i+1)
		}
		slices.Sort(keys)
		terms := make([]edit, len(keys))
		for i, k := range keys {
			h := uint32(k >> 32)
			terms[i] = edit{a: ID(h >> dictShift), b: ID(h), c: ID(k)}
		}
		w.next.dict = w.next.dict.fold(terms)
	}
	if len(w.ops) == 0 {
		return
	}
	w.next.spo = w.next.spo.fold(w.ops)
	// The SPO edits are spent once folded: rotate them into OSP order in
	// the scratch, and from there back into their own array in POS order.
	osp := w.scratch(len(w.ops))
	w.rotate(osp, w.ops)
	w.next.osp = w.next.osp.fold(osp)
	w.rotate(w.ops, osp)
	w.next.pos = w.next.pos.fold(w.ops)
	w.countKinds(w.ops)
}

// countKinds folds the net edits, in POS order, into a copy of the kind
// table: each predicate they touch gets its row's counts moved by the
// kinds of the subjects and objects added and removed, and the other
// rows are copied as they are. A run of edits on one object classifies
// it once.
func (w *writer) countKinds(pos []edit) {
	old := w.next.kinds
	preds := 0
	for i, e := range pos {
		if i == 0 || e.a != pos[i-1].a {
			preds++
		}
	}
	out := make([]predKinds, 0, len(old)+preds)
	for len(pos) > 0 {
		p := pos[0].a
		k, had := slices.BinarySearchFunc(old, p, comparePredKinds)
		out = append(out, old[:k]...)
		row := predKinds{p: p}
		if had {
			row = old[k]
			k++
		}
		old = old[k:]
		var last ID
		var okind rdf.ValueKind
		for ; len(pos) > 0 && pos[0].a == p; pos = pos[1:] {
			e := pos[0]
			if e.b != last {
				last, okind = e.b, w.next.inverse[e.b-1].ValueKind()
			}
			skind := w.next.inverse[e.c-1].ValueKind()
			if e.del {
				row.kinds.Subjects[skind]--
				row.kinds.Objects[okind]--
			} else {
				row.kinds.Subjects[skind]++
				row.kinds.Objects[okind]++
			}
		}
		if row.kinds != (PredicateKinds{}) {
			out = append(out, row)
		}
	}
	w.next.kinds = append(out, old...)
}

// fold returns the index with the sorted net edits applied, growing
// the tree when an edit's first-position ID lies beyond it.
func (ix index) fold(edits []edit) index {
	if ix.root == nil {
		ix.height = 1
	}
	for last := uint64(edits[len(edits)-1].a); last>>(nodeBits*(ix.height+1)) != 0; ix.height++ {
		if ix.root != nil {
			ix.root = &node{kids: &[nodeSize]*node{ix.root}}
		}
	}
	ix.root = foldNode(ix.root, ix.height, edits)
	return ix
}

// foldNode returns a copy of n, a node at height h, with the edits
// under it applied, or nil when nothing is left under it. The copy
// allocates only the array its height uses.
func foldNode(n *node, h uint, edits []edit) *node {
	c := new(node)
	if h > 1 {
		c.kids = new([nodeSize]*node)
		if n != nil {
			*c.kids = *n.kids
		}
	} else {
		c.leaves = new([nodeSize]*leaf)
		if n != nil {
			*c.leaves = *n.leaves
		}
	}
	sh := nodeBits * h
	for len(edits) > 0 {
		i := edits[0].a >> sh & nodeMask
		j := 1
		for j < len(edits) && edits[j].a>>sh&nodeMask == i {
			j++
		}
		if h > 1 {
			c.kids[i] = foldNode(c.kids[i], h-1, edits[:j])
		} else {
			c.leaves[i] = foldLeaf(c.leaves[i], edits[:j])
		}
		edits = edits[j:]
	}
	if h > 1 && *c.kids == [nodeSize]*node{} || h == 1 && *c.leaves == [nodeSize]*leaf{} {
		return nil
	}
	return c
}

// foldLeaf returns a copy of lf with the edits under it applied, or nil
// when no bucket is left in it. The buckets an insert lands in cannot
// end empty, so their headers share one allocation.
func foldLeaf(lf *leaf, edits []edit) *leaf {
	c := new(leaf)
	if lf != nil {
		*c = *lf
	}
	n, last := 0, ID(0)
	for _, e := range edits {
		if !e.del && (n == 0 || e.a != last) {
			n, last = n+1, e.a
		}
	}
	hdrs := make([]bucket, n)
	for len(edits) > 0 {
		a, ins := edits[0].a, !edits[0].del
		j := 1
		for ; j < len(edits) && edits[j].a == a; j++ {
			ins = ins || !edits[j].del
		}
		var nb *bucket
		if ins {
			nb, hdrs = &hdrs[0], hdrs[1:]
		}
		c[a&nodeMask] = merge(nb, c[a&nodeMask], edits[:j])
		edits = edits[j:]
	}
	if *c == (leaf{}) {
		return nil
	}
	return c
}

// merge fills nb with bk (nil for an empty bucket) and the edits, all
// under its first-position ID and sorted by (b, c), applied by one
// linear merge, and returns it; nil when nothing is left. A nil nb is
// allocated when needed. A delete's (b, c) is in bk and an insert's is
// not, so the result is sized exactly first.
func merge(nb, bk *bucket, edits []edit) *bucket {
	var old bucket
	if bk != nil {
		old = *bk
	}
	nKeys, nIDs := len(old.keys), len(old.ids)
	for g := edits; len(g) > 0; {
		j, adds := 0, 0
		for ; j < len(g) && g[j].b == g[0].b; j++ {
			if !g[j].del {
				adds++
			}
		}
		dels := j - adds
		nIDs += adds - dels
		if k, had := slices.BinarySearch(old.keys, g[0].b); !had {
			nKeys++
		} else if adds == 0 && dels == int(old.offs[k+1]-old.offs[k]) {
			nKeys--
		}
		g = g[j:]
	}
	if nIDs == 0 {
		return nil
	}
	if nb == nil {
		nb = new(bucket)
	}
	buf := make([]ID, 2*nKeys+1+nIDs)
	*nb = bucket{keys: buf[:nKeys:nKeys], offs: buf[nKeys : 2*nKeys+1 : 2*nKeys+1], ids: buf[2*nKeys+1:]}
	// nk keys and ni IDs are written; ok old keys are consumed.
	nk, ni, ok := 0, 0, 0
	// copyOld copies old keys [ok, to) and their lists.
	copyOld := func(to int) {
		if to == ok {
			return
		}
		shift := ID(ni) - old.offs[ok]
		ni += copy(nb.ids[ni:], old.ids[old.offs[ok]:old.offs[to]])
		for ; ok < to; ok++ {
			nb.keys[nk] = old.keys[ok]
			nk++
			nb.offs[nk] = old.offs[ok+1] + shift
		}
	}
	for len(edits) > 0 {
		b := edits[0].b
		j := 1
		for j < len(edits) && edits[j].b == b {
			j++
		}
		k, had := slices.BinarySearch(old.keys[ok:], b)
		copyOld(ok + k)
		var lst []ID
		if had {
			lst = old.list(ok)
			ok++
		}
		start := ni
		for _, e := range edits[:j] {
			i, _ := slices.BinarySearch(lst, e.c)
			ni += copy(nb.ids[ni:], lst[:i])
			if e.del {
				lst = lst[i+1:]
			} else {
				nb.ids[ni] = e.c
				ni++
				lst = lst[i:]
			}
		}
		ni += copy(nb.ids[ni:], lst)
		if ni > start {
			nb.keys[nk] = b
			nk++
			nb.offs[nk] = ID(ni)
		}
		edits = edits[j:]
	}
	copyOld(len(old.keys))
	if nk != nKeys || ni != nIDs {
		panic("store: bucket merge wrote a size it did not count")
	}
	return nb
}

// lookup returns the ID of t if the batch added it or the snapshot it
// began on holds it.
func (w *writer) lookup(t rdf.Term) (ID, bool) { return w.find(t, termHash(t)) }

// find is lookup of t, whose hash is h: the batch's terms with that
// hash, newest first, then the snapshot's.
func (w *writer) find(t rdf.Term, h uint32) (ID, bool) {
	if id := w.byHash[h]; id != 0 {
		base := ID(len(w.next.inverse) - len(w.fresh))
		for ; id != 0; id = w.fresh[id-base-1].prev {
			if w.next.inverse[id-1] == t {
				return id, true
			}
		}
	}
	return w.next.lookup(t, h)
}

// intern returns the ID for t, assigning one if needed; commit folds a
// new one into the dictionary index. A term from outside the store may
// be a substring of a much larger text (the parser hands out slices of
// the request), so a new one is stored with strings of its own:
// otherwise the dictionary would keep the whole text alive.
func (w *writer) intern(t rdf.Term) ID {
	h := termHash(t)
	if id, ok := w.find(t, h); ok {
		return id
	}
	return w.assign(rdf.Term{Kind: t.Kind, Value: strings.Clone(t.Value),
		Datatype: strings.Clone(t.Datatype), Lang: strings.Clone(t.Lang)}, h)
}

// assign gives t, whose hash is h and which is not in the dictionary,
// the next ID.
func (w *writer) assign(t rdf.Term, h uint32) ID {
	// The inverse slice is append-only: growing it in place is safe
	// because published snapshots only read up to their own length.
	w.next.inverse = append(w.next.inverse, t)
	id := ID(len(w.next.inverse))
	if w.byHash == nil {
		w.byHash = make(map[uint32]ID)
	}
	w.fresh = append(w.fresh, freshTerm{hash: h, prev: w.byHash[h]})
	w.byHash[h] = id
	w.dirty = true
	return id
}

// addTriple interns a ground triple and records its insertion; a
// triple with a variable or zero term is skipped.
func (w *writer) addTriple(t rdf.Triple) {
	for _, x := range [3]rdf.Term{t.S, t.P, t.O} {
		if x.IsZero() || x.IsVar() {
			return
		}
	}
	w.record(w.intern(t.S), w.intern(t.P), w.intern(t.O), false)
}

// AddAll inserts every triple as one atomic batch and returns the
// number newly added. Readers observe either none or all of the batch:
// the new snapshot is published once, after the whole batch is indexed.
// For bulk loads this also folds the whole batch into the indexes in
// one pass.
func (s *Store) AddAll(ts []rdf.Triple) int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	w := s.begin(len(ts))
	for _, t := range ts {
		w.addTriple(t)
	}
	added, _, _ := s.commit(w)
	return added
}

// Batch is a write batch in ID space, open while the fill function
// given to Store.Batch runs and invalid after it returns: the caller
// interns each term once and adds triples by the IDs their terms got,
// so nothing is hashed or looked up a second time.
type Batch struct{ w *writer }

// Intern returns the ID of t, assigning the next one when t is new; a
// variable or zero term is not data and gets ID 0. Unlike the writers
// that take rdf.Triples, Intern stores a new term as it is, sharing its
// strings with the caller: its callers build their terms themselves
// (internal/kb) or copy another store's dictionary (internal/shard), so
// no larger text stays alive behind them. Interning another store's
// TermsView in order into an empty store reproduces its IDs exactly.
func (b *Batch) Intern(t rdf.Term) ID {
	if t.IsZero() || t.IsVar() {
		return 0
	}
	h := termHash(t)
	if id, ok := b.w.find(t, h); ok {
		return id
	}
	return b.w.assign(t, h)
}

// Add records the insertion of the triple (s, p, o). A triple with a
// zero ID (a variable or zero term's) is skipped; an ID the dictionary
// does not hold panics.
func (b *Batch) Add(s, p, o ID) {
	if s == 0 || p == 0 || o == 0 {
		return
	}
	if n := ID(len(b.w.next.inverse)); s > n || p > n || o > n {
		panic(fmt.Sprintf("store: Batch.Add(%d, %d, %d) of an ID outside 1..%d", s, p, o, n))
	}
	b.w.record(s, p, o, false)
}

// Batch runs fill on one write batch expecting about n triples and
// publishes what it interned and added as one snapshot, as AddAll does;
// a batch that changes nothing publishes nothing. It returns the number
// of triples newly added.
func (s *Store) Batch(n int, fill func(*Batch)) (added int) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	w := s.begin(n)
	fill(&Batch{w: w})
	added, _, _ = s.commit(w)
	return added
}

// BatchOp is one ordered operation inside an atomic write batch: an
// insertion or a deletion of a list of ground triples. ApplyBatch and
// the write-ahead-log replay path (internal/wal) both consume this
// type, so a live SPARQL UPDATE request and its crash-recovery replay
// apply byte-identical batches.
type BatchOp struct {
	// Delete selects removal; false inserts.
	Delete bool
	// Triples are the ground triples the operation covers. Triples with
	// variable or zero terms are skipped (store data must be ground).
	Triples []rdf.Triple
}

// ApplyBatch applies the operations in order as one atomic write batch:
// the new snapshot is published once, after every operation has been
// indexed, so readers observe either none or all of the batch — a
// mixed DELETE DATA + INSERT DATA update can never be seen half
// applied. Later operations see the effects of earlier ones (an insert
// followed by a delete of the same triple nets to absent). It returns
// the number of triples actually added and removed. A batch that
// changes nothing publishes nothing, so the generation the answer cache
// keys on moves exactly when the contents do. A delete keeps its terms
// in the dictionary (IDs are never reused), so add/delete churn of the
// same triples reaches a steady state.
func (s *Store) ApplyBatch(ops []BatchOp) (added, removed int) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	n := 0
	for _, op := range ops {
		n += len(op.Triples)
	}
	w := s.begin(n)
	for _, op := range ops {
		if !op.Delete {
			for _, t := range op.Triples {
				w.addTriple(t)
			}
			continue
		}
		for _, t := range op.Triples {
			ids, ok := patternIDs(t, w.lookup)
			if !ok || ids[0] == 0 || ids[1] == 0 || ids[2] == 0 {
				continue // unknown term or non-ground: nothing to remove
			}
			w.record(ids[0], ids[1], ids[2], true)
		}
	}
	added, removed, _ = s.commit(w)
	return added, removed
}

// SetGen aligns the store's generation counter with an externally
// persisted value: the durability layer (internal/wal) calls it after
// recovery so the generation numbering a restarted server reports is
// continuous with the one clients observed before the crash, and after
// each logged batch so the published generation always equals the
// generation recorded in the log. If gen is ahead of the published
// snapshot's generation, the current contents are republished stamped
// with gen (the "equal generations imply identical contents" property
// is preserved — gen has never been published before). Backward moves
// never republish: a gen at or below the published generation only
// clamps the internal counter so the next write publishes above every
// generation readers may have seen.
func (s *Store) SetGen(gen uint64) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	cur := s.snap.Load()
	if gen <= cur.gen {
		s.gen = cur.gen
		return
	}
	s.gen = gen
	sn := *cur
	sn.gen = gen
	s.snap.Store(&sn)
}
