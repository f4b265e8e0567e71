// Package plancache provides the bounded, sharded global cache of
// compiled SPARQL plan shapes the execution sessions consult before
// compiling (internal/sparql's shape/bind split). The §2.3 candidate
// queries of every question of one form differ only in their bound
// terms, so sibling candidates — within one question and across
// concurrent questions — share one cached shape.
//
// The cache mirrors internal/qacache's discipline: sharded so the
// per-lookup critical section is one shard mutex, capacity enforced
// per shard (an approximate global LRU with no cross-shard
// coordination), entries stamped with the store snapshot generation
// they were computed against, lookups at a different generation
// treated as misses (older entries evicted), and a stale Put never
// clobbering a fresher entry.
//
// For the plan *shape* the generation stamp is belt-and-braces (a
// shape is a pure function of the query text, so one compiled at
// generation N would in fact be correct at N+1), but it is load-
// bearing for the rest of the entry: sparql's planEntry carries a
// bound-result memo — full columnar results keyed by the resolved
// constants, genuinely snapshot-dependent — and the stamp is exactly
// what guarantees a store write evicts those memos before any session
// at the new generation can replay stale rows. Generations are only
// comparable within one store lineage, so the memo's bind keys
// additionally carry the store's process-unique ID (store.Snapshot.UID);
// the stamp alone cannot tell two same-generation stores apart.
//
// The package is deliberately time-free: a plan shape never expires
// by wall clock, so no code here reads time at all. qalint's
// clockinject scope covers this package, so any future time use must
// arrive as an injected func() time.Time (cf. qacache.WithClock), not
// a stray time.Now.
package plancache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// nShards is the shard count; a power of two so hashing can mask.
const nShards = 16

// Cache is a sharded LRU keyed by shape string with generation-stamped
// entries. Safe for concurrent use.
type Cache[V any] struct {
	shards    [nShards]shard[V]
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type shard[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List               // front = most recently used; guarded by mu
	m   map[string]*list.Element // guarded by mu
}

type entry[V any] struct {
	key string
	gen uint64
	val V
}

// New builds a cache holding at most capacity entries overall
// (capacity is split across shards; every shard holds at least one
// entry). Capacity <= 0 yields a cache of nShards entries minimum —
// callers gate "disabled" above this package (sparql.Session carries
// a nil *PlanCache when caching is off).
func New[V any](capacity int) *Cache[V] {
	c := &Cache[V]{}
	per := capacity / nShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = shard[V]{cap: per, ll: list.New(), m: make(map[string]*list.Element)}
	}
	return c
}

// fnv32 hashes the key to pick a shard.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *Cache[V]) shardFor(key string) *shard[V] {
	return &c.shards[fnv32(key)&(nShards-1)]
}

// Get returns the cached value for key computed at generation gen. An
// entry stored under a different generation is stale: it is never
// returned, and an entry *older* than the requester's generation is
// evicted (a newer one is left alone — the requester pinned a
// pre-write snapshot while another session already refreshed the key,
// and deleting the fresh entry would thrash it).
func (c *Cache[V]) Get(key string, gen uint64) (V, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.m[key]
	if !ok {
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	e := el.Value.(*entry[V])
	if e.gen != gen {
		if e.gen < gen {
			sh.ll.Remove(el)
			delete(sh.m, key)
			c.evictions.Add(1)
		}
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	sh.ll.MoveToFront(el)
	c.hits.Add(1)
	return e.val, true
}

// Put stores the value for key at generation gen, evicting the shard's
// least recently used entry when over capacity. A Put at a generation
// below an existing entry's is refused: a session that pinned a
// pre-write snapshot must never clobber a plan another session already
// compiled against the current store.
func (c *Cache[V]) Put(key string, gen uint64, v V) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		e := el.Value.(*entry[V])
		if gen < e.gen {
			return // never clobber a fresher entry with a stale plan
		}
		e.gen, e.val = gen, v
		sh.ll.MoveToFront(el)
		return
	}
	sh.m[key] = sh.ll.PushFront(&entry[V]{key: key, gen: gen, val: v})
	for sh.ll.Len() > sh.cap {
		oldest := sh.ll.Back()
		sh.ll.Remove(oldest)
		delete(sh.m, oldest.Value.(*entry[V]).key)
		c.evictions.Add(1)
	}
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the cumulative hit, miss and eviction counts
// (evictions count both capacity and generation-staleness removals).
func (c *Cache[V]) Stats() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
