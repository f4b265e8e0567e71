// Package store provides the in-memory RDF triple store the question
// answering pipeline queries. It plays the role DBpedia's public SPARQL
// endpoint plays in the paper.
//
// Terms are dictionary-encoded to 32-bit IDs; triples are kept in three
// permutation indexes (SPO, POS, OSP) so that every wildcard combination
// of a triple pattern resolves to an index scan.
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
// copy-on-write: every level of the structure (index root → page of 512
// buckets → bucket → sorted ID list) carries the generation of the
// write batch that created it, so a batch clones only what it actually
// touches and mutates its own clones in place for the rest of the
// batch. A bucket is two parallel slices sorted by key, so its clone is
// two slice copies, and a key is found by binary search. In each of
// the three indexes a batch clones the root, a 4 KB page per page it
// touches and each bucket it lands in, whose size grows with the
// hottest bucket (rdf:type's in POS). An update_mix flip (8 deletes
// and 8 inserts on a predicate with 512 objects, at 6.5k triples)
// costs about 44 KB in 134 allocations. Anything in a loop belongs in
// one AddAll or ApplyBatch, which pay each clone once.
// The new root is published once per public write call, giving readers
// atomic batch visibility. Old snapshots are reclaimed by the garbage
// collector once the last reader drops them.
//
// # Two-layer execution model
//
// A Snapshot exposes two query surfaces. The term-space API
// (Match/ForEachMatch/Count, Subjects/Objects) accepts rdf.Triple
// patterns and yields full rdf.Term triples; it is the convenient
// surface for boot-time builders that need a handful of lookups. The
// ID-space API (ForEachMatchIDs, HasIDs, EstimateCardinalityIDs,
// PostingList) works entirely on dictionary IDs and never materialises
// terms; the SPARQL executor runs on it — pinning one Snapshot per
// query — and converts IDs back to terms only when projecting final
// results (late materialization). TermsView exposes the dictionary as
// an immutable slice so that conversion needs no locks.
//
// A published snapshot holds no cache a reader fills in: a bucket's
// sorted keys and its triple count are kept by the writer, so a reader
// of a bucket only ever reads it.
package store

import (
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
	// pageBits sizes the copy-on-write granularity of the index outer
	// level: buckets live in fixed pages of 2^pageBits slots, so a write
	// batch clones one page (512 pointers), not the whole outer level.
	pageBits = 9
	pageSize = 1 << pageBits
	pageMask = pageSize - 1

	// nDictShards shards the term→ID dictionary for the same reason: a
	// batch that interns new terms clones only the touched shards.
	nDictShards = 64
)

// listEntry is one third-position ID list, sorted and unique, stamped
// with the generation of the write batch that owns the backing array.
// A batch may mutate the array in place only when gen matches its own;
// otherwise the list is shared with published snapshots and must be
// copied first.
type listEntry struct {
	gen uint64
	ids []ID
}

// bucket is one second-level index entry: third-position ID lists keyed
// by the second-position ID, held as two parallel slices sorted by key
// (lists[i] is the list under keys[i]), and total, the sum of the list
// lengths. gen marks the write batch that created this bucket instance;
// published buckets are immutable and never empty.
type bucket struct {
	gen   uint64
	total int
	keys  []ID
	lists []listEntry
}

// page is one fixed-size block of first-position bucket slots. Published
// pages are immutable; gen marks the owning write batch.
type page struct {
	gen   uint64
	slots [pageSize]*bucket
}

// index is one of the three triple permutations (SPO/POS/OSP). The
// outer level is a paged array indexed directly by the dense first-
// position ID — lookups are two array indexations and full iterations
// are naturally in ascending ID order, so no outer sort cache is
// needed. Published index roots are immutable.
type index struct {
	gen   uint64
	pages []*page
}

// bucketFor returns the bucket for first-position id (nil when absent).
func (ix *index) bucketFor(id ID) *bucket {
	pi := int(id) >> pageBits
	if pi >= len(ix.pages) {
		return nil
	}
	pg := ix.pages[pi]
	if pg == nil {
		return nil
	}
	return pg.slots[int(id)&pageMask]
}

// list returns the third-position IDs at [a][b] (nil when absent).
func (ix *index) list(a, b ID) []ID {
	bk := ix.bucketFor(a)
	if bk == nil {
		return nil
	}
	if i, ok := slices.BinarySearch(bk.keys, b); ok {
		return bk.lists[i].ids
	}
	return nil
}

// forEachBucket streams the non-empty (firstID, bucket) pairs in
// ascending first-ID order; fn returning false stops early.
func (ix *index) forEachBucket(fn func(id ID, bk *bucket) bool) {
	for pi, pg := range ix.pages {
		if pg == nil {
			continue
		}
		base := pi << pageBits
		for si := 0; si < pageSize; si++ {
			bk := pg.slots[si]
			if bk == nil {
				continue
			}
			if !fn(ID(base+si), bk) {
				return
			}
		}
	}
}

// dictShard is one shard of the term→ID dictionary. Published shards
// are immutable.
type dictShard struct {
	gen uint64
	m   map[rdf.Term]ID
}

// dict is the sharded term→ID map. Published dict roots are immutable.
type dict struct {
	gen    uint64
	shards []*dictShard // len nDictShards
}

// termShard hashes a term to its dictionary shard (FNV-1a over the
// term's fields).
func termShard(t rdf.Term) int {
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
	return int(h) & (nDictShards - 1)
}

// rankTable is the lazily built term-rank permutation of one snapshot
// generation: the dictionary IDs sorted by rdf.Term.Compare order, and
// the inverse mapping from ID to sort rank. It hangs off the Snapshot
// as a plain pointer (writers copy Snapshot by value, so the box must
// be copyable) and is built at most once per generation via the
// sync.Once; every session pinning the snapshot shares the build.
//
// Tables chain: a dictionary-growing commit links the new snapshot's
// (empty) table to the previous snapshot's via prev/prevTerms. If the
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
	prevTerms int        // dictionary length the prev table covers
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
	d       *dict
	inverse []rdf.Term // inverse[id-1] = term; shared append-only backing
	spo     *index
	pos     *index
	osp     *index
	size    int
	gen     uint64
	ranks   *rankTable // fresh (empty) box per published generation
}

// Store is an indexed, dictionary-encoded triple store with wait-free
// snapshot reads. The zero value is not usable; call New.
type Store struct {
	wmu  sync.Mutex // serialises writers
	snap atomic.Pointer[Snapshot]
	gen  uint64 // last allocated batch generation; guarded by wmu
}

// New returns an empty store.
func New() *Store {
	s := &Store{}
	s.snap.Store(&Snapshot{
		d:     &dict{shards: make([]*dictShard, nDictShards)},
		spo:   &index{},
		pos:   &index{},
		osp:   &index{},
		ranks: &rankTable{},
	})
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
	w := s.begin()
	for _, t := range terms {
		w.intern(t)
	}
	if len(w.next.inverse) != len(terms) { // a duplicate would shift every later ID
		return nil, fmt.Errorf("store: dictionary contains duplicate terms")
	}
	n := ID(len(terms))
	for i, tr := range triples {
		if tr[0] == 0 || tr[1] == 0 || tr[2] == 0 || tr[0] > n || tr[1] > n || tr[2] > n {
			return nil, fmt.Errorf("store: triple %d references a term ID outside 1..%d", i, n)
		}
		if !w.addIDs(tr[0], tr[1], tr[2]) {
			return nil, fmt.Errorf("store: triple %d is a duplicate", i)
		}
	}
	w.dirty = true // an empty store keeps its generation too
	s.commit(w)
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

// Lookup returns the ID of t if it is in the dictionary.
func (sn *Snapshot) Lookup(t rdf.Term) (ID, bool) {
	sh := sn.d.shards[termShard(t)]
	if sh == nil {
		return 0, false
	}
	id, ok := sh.m[t]
	return id, ok
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
		ord := buildRankOrder(inv, base, rt.prevTerms)
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
// With a built base table covering the first prevTerms IDs it sorts
// only the new-ID suffix and two-way merges it into the base order;
// otherwise it falls back to the full sort. Compare is a strict total
// order on distinct terms, so the merge never sees a tie and the
// result is identical to the full sort.
func buildRankOrder(inv []rdf.Term, base *rankData, prevTerms int) []ID {
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
	suffix := make([]ID, len(inv)-prevTerms)
	for i := range suffix {
		suffix[i] = ID(prevTerms + i + 1)
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

// patternIDs resolves the bound terms of pat to IDs, with ID(0) for
// wildcards. The bool result is false when a bound term is not in the
// dictionary (the pattern can match nothing).
func (sn *Snapshot) patternIDs(pat rdf.Triple) ([3]ID, bool) {
	var ids [3]ID
	for i, t := range [3]rdf.Term{pat.S, pat.P, pat.O} {
		if t.IsZero() || t.IsVar() {
			continue
		}
		id, ok := sn.Lookup(t)
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

// Has reports whether the exact ground triple is present.
func (sn *Snapshot) Has(t rdf.Triple) bool {
	sid, ok := sn.Lookup(t.S)
	if !ok {
		return false
	}
	pid, ok := sn.Lookup(t.P)
	if !ok {
		return false
	}
	oid, ok := sn.Lookup(t.O)
	if !ok {
		return false
	}
	return sn.HasIDs(sid, pid, oid)
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
			for _, o := range bk.lists[i].ids {
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
			for _, sub := range bk.lists[i].ids {
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
			for _, p := range bk.lists[i].ids {
				if !fn(sub, p, oid) {
					return
				}
			}
		}
	default: // full scan, ascending subject ID (page order)
		sn.spo.forEachBucket(func(sub ID, bk *bucket) bool {
			for i, p := range bk.keys {
				for _, o := range bk.lists[i].ids {
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
	ids, ok := sn.patternIDs(pat)
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
		return bk.total
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
		return sum(sn.spo, sid)
	case pid != 0:
		return sum(sn.pos, pid)
	case oid != 0:
		return sum(sn.osp, oid)
	default:
		return sn.size
	}
}

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

// EstimateCardinality is EstimateCardinalityIDs on a term pattern.
func (sn *Snapshot) EstimateCardinality(pat rdf.Triple) int {
	ids, ok := sn.patternIDs(pat)
	if !ok {
		return 0
	}
	return sn.EstimateCardinalityIDs(ids)
}

// Count returns the number of triples matching the term pattern.
func (sn *Snapshot) Count(pat rdf.Triple) int {
	return sn.EstimateCardinality(pat)
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
func (s *Store) TermCount() int { return s.Snapshot().TermCount() }

// Triples is Snapshot.Triples on the current snapshot. It exists only
// because cmd/qaload calls it (qaload_test.go:179–190).
func (s *Store) Triples() []rdf.Triple { return s.Snapshot().Triples() }

// Subjects is Snapshot.Subjects on the current snapshot. It exists only
// because cmd/qaload calls it (workload.go:84).
func (s *Store) Subjects(p, o rdf.Term) []rdf.Term { return s.Snapshot().Subjects(p, o) }

// --- Write path: generation-stamped copy-on-write batches ---

// writer builds the next snapshot for one write batch. It starts as a
// shallow copy of the current snapshot and clones structures lazily,
// gen-stamping each clone so later writes in the same batch mutate the
// private copies in place. Callers hold Store.wmu throughout.
type writer struct {
	next      Snapshot
	gen       uint64
	dirty     bool
	prevTerms int // dictionary length at begin; detects dictionary growth at commit
}

// begin opens a write batch. Caller holds wmu.
func (s *Store) begin() *writer {
	s.gen++
	w := &writer{next: *s.snap.Load(), gen: s.gen}
	w.prevTerms = len(w.next.inverse)
	return w
}

// commit publishes the batch if it changed anything. Caller holds wmu.
func (s *Store) commit(w *writer) {
	if !w.dirty {
		return
	}
	w.next.gen = w.gen
	if len(w.next.inverse) != w.prevTerms {
		// The batch grew the dictionary: chain a fresh rank box to the
		// previous one so the next TermRanks call can merge the sorted
		// new-ID suffix into an already-built permutation instead of
		// re-sorting the whole dictionary. Past the depth cap start a
		// detached root (full rebuild on first use) to bound memory.
		old := w.next.ranks
		if old.depth+1 > maxRankChain {
			w.next.ranks = &rankTable{}
		} else {
			w.next.ranks = &rankTable{prev: old, prevTerms: w.prevTerms, depth: old.depth + 1}
		}
	}
	// A batch that left the dictionary unchanged keeps sharing the old
	// box: identical terms have identical ranks, so the permutation is
	// built at most once across those generations. (SetGen's republish
	// shares the box for the same reason.)
	sn := w.next
	s.snap.Store(&sn)
}

// editDict returns the batch-private dict root, cloning the published
// one on first use.
func (w *writer) editDict() *dict {
	d := w.next.d
	if d.gen != w.gen {
		d = &dict{gen: w.gen, shards: append([]*dictShard(nil), d.shards...)}
		w.next.d = d
	}
	return d
}

// intern returns the ID for t, assigning one if needed. A term from
// outside the store may be a substring of a much larger text (the parser
// hands out slices of the request), so a new one is stored with strings
// of its own: otherwise the dictionary would keep the whole text alive.
func (w *writer) intern(t rdf.Term) ID {
	if id, ok := w.next.Lookup(t); ok {
		return id
	}
	return w.assign(rdf.Term{Kind: t.Kind, Value: strings.Clone(t.Value),
		Datatype: strings.Clone(t.Datatype), Lang: strings.Clone(t.Lang)})
}

// assign gives t, which is not in the dictionary, the next ID.
func (w *writer) assign(t rdf.Term) ID {
	si := termShard(t)
	d := w.editDict()
	sh := d.shards[si]
	if sh == nil {
		sh = &dictShard{gen: w.gen, m: make(map[rdf.Term]ID, 4)}
		d.shards[si] = sh
	} else if sh.gen != w.gen {
		m := make(map[rdf.Term]ID, len(sh.m)+1)
		for k, v := range sh.m {
			m[k] = v
		}
		sh = &dictShard{gen: w.gen, m: m}
		d.shards[si] = sh
	}
	// The inverse slice is append-only: growing it in place is safe
	// because published snapshots only read up to their own length.
	w.next.inverse = append(w.next.inverse, t)
	id := ID(len(w.next.inverse))
	sh.m[t] = id
	w.dirty = true
	return id
}

// editBucket returns the batch-private bucket for first-position id in
// *ixp, cloning the index root, the page and the bucket as needed (and
// creating them when absent).
func (w *writer) editBucket(ixp **index, id ID) *bucket {
	ix := *ixp
	if ix.gen != w.gen {
		ix = &index{gen: w.gen, pages: append([]*page(nil), ix.pages...)}
		*ixp = ix
	}
	pi := int(id) >> pageBits
	for pi >= len(ix.pages) {
		ix.pages = append(ix.pages, nil)
	}
	pg := ix.pages[pi]
	if pg == nil {
		pg = &page{gen: w.gen}
		ix.pages[pi] = pg
	} else if pg.gen != w.gen {
		np := &page{gen: w.gen, slots: pg.slots}
		ix.pages[pi] = np
		pg = np
	}
	sl := int(id) & pageMask
	bk := pg.slots[sl]
	if bk == nil {
		bk = &bucket{gen: w.gen}
		pg.slots[sl] = bk
	} else if bk.gen != w.gen {
		bk = &bucket{gen: w.gen, total: bk.total, keys: slices.Clone(bk.keys), lists: slices.Clone(bk.lists)}
		pg.slots[sl] = bk
	}
	return bk
}

// insert adds c to the sorted, unique list at [a][b] of *ixp. The
// caller has already established that c is absent.
func (w *writer) insert(ixp **index, a, b, c ID) {
	bk := w.editBucket(ixp, a)
	k, had := slices.BinarySearch(bk.keys, b)
	if !had {
		bk.keys = slices.Insert(bk.keys, k, b)
		bk.lists = slices.Insert(bk.lists, k, listEntry{})
	}
	bk.total++
	e := &bk.lists[k]
	i, _ := slices.BinarySearch(e.ids, c)
	if e.gen == w.gen {
		e.ids = slices.Insert(e.ids, i, c)
		return
	}
	nl := make([]ID, len(e.ids)+1)
	copy(nl, e.ids[:i])
	nl[i] = c
	copy(nl[i+1:], e.ids[i:])
	*e = listEntry{gen: w.gen, ids: nl}
}

// removeOne deletes c from the list at [a][b] of *ixp, pruning empty
// lists and buckets. The caller has already established that c is
// present.
func (w *writer) removeOne(ixp **index, a, b, c ID) {
	bk := w.editBucket(ixp, a)
	k, _ := slices.BinarySearch(bk.keys, b)
	bk.total--
	e := &bk.lists[k]
	switch i, _ := slices.BinarySearch(e.ids, c); {
	case len(e.ids) == 1:
		bk.keys = slices.Delete(bk.keys, k, k+1)
		bk.lists = slices.Delete(bk.lists, k, k+1)
		if len(bk.keys) == 0 {
			// editBucket made the page private; clear the slot.
			(*ixp).pages[int(a)>>pageBits].slots[int(a)&pageMask] = nil
		}
	case e.gen == w.gen:
		e.ids = slices.Delete(e.ids, i, i+1)
	default:
		nl := make([]ID, len(e.ids)-1)
		copy(nl, e.ids[:i])
		copy(nl[i:], e.ids[i+1:])
		*e = listEntry{gen: w.gen, ids: nl}
	}
}

// addIDs indexes an already-interned triple, returning whether it was new.
func (w *writer) addIDs(sid, pid, oid ID) bool {
	if w.next.HasIDs(sid, pid, oid) {
		return false
	}
	w.insert(&w.next.spo, sid, pid, oid)
	w.insert(&w.next.pos, pid, oid, sid)
	w.insert(&w.next.osp, oid, sid, pid)
	w.next.size++
	w.dirty = true
	return true
}

// removeIDs unindexes a triple, returning whether it was present.
func (w *writer) removeIDs(sid, pid, oid ID) bool {
	if !w.next.HasIDs(sid, pid, oid) {
		return false
	}
	w.removeOne(&w.next.spo, sid, pid, oid)
	w.removeOne(&w.next.pos, pid, oid, sid)
	w.removeOne(&w.next.osp, oid, sid, pid)
	w.next.size--
	w.dirty = true
	return true
}

// addTriple interns and indexes one ground triple.
func (w *writer) addTriple(t rdf.Triple) bool {
	if t.S.IsVar() || t.P.IsVar() || t.O.IsVar() {
		return false
	}
	return w.addIDs(w.intern(t.S), w.intern(t.P), w.intern(t.O))
}

// Add inserts a triple. It reports whether the triple was new. Variable
// terms are rejected (store data must be ground). Each call is a write
// batch and a published snapshot of its own: for single writes and
// tests. In a loop, collect the triples and call AddAll (or ApplyBatch)
// once — n Adds cost O(n × hottest bucket), one AddAll of n is linear.
func (s *Store) Add(t rdf.Triple) bool {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	w := s.begin()
	added := w.addTriple(t)
	s.commit(w)
	return added
}

// AddAll inserts every triple as one atomic batch and returns the
// number newly added. Readers observe either none or all of the batch:
// the new snapshot is published once, after the whole batch is indexed.
// For bulk loads this also amortises the copy-on-write cloning across
// the batch.
func (s *Store) AddAll(ts []rdf.Triple) int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	w := s.begin()
	n := 0
	for _, t := range ts {
		if w.addTriple(t) {
			n++
		}
	}
	s.commit(w)
	return n
}

// InternTerms interns every listed ground term in order as one atomic
// batch, assigning dense IDs to the ones not already present, without
// indexing any triples. Interning the full TermsView() of another
// store into an empty store reproduces its ID assignment exactly —
// the dictionary-replication primitive the scatter-gather shard tier
// (internal/shard) uses to keep shard-local IDs equal to the
// coordinator's global IDs. Variable and zero terms are skipped. The
// terms are stored as they are, sharing their strings with the caller:
// another store's dictionary already owns them.
func (s *Store) InternTerms(terms []rdf.Term) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	w := s.begin()
	for _, t := range terms {
		if t.IsZero() || t.IsVar() {
			continue
		}
		if _, ok := w.next.Lookup(t); !ok {
			w.assign(t)
		}
	}
	s.commit(w)
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
	w := s.begin()
	for _, op := range ops {
		if op.Delete {
			for _, t := range op.Triples {
				ids, ok := w.next.patternIDs(t)
				if !ok || ids[0] == 0 || ids[1] == 0 || ids[2] == 0 {
					continue // unknown term or non-ground: nothing to remove
				}
				if w.removeIDs(ids[0], ids[1], ids[2]) {
					removed++
				}
			}
		} else {
			for _, t := range op.Triples {
				if w.addTriple(t) {
					added++
				}
			}
		}
	}
	s.commit(w)
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
