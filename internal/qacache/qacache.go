// Package qacache provides the bounded, sharded LRU that internal/core
// consults as its answer cache, in front of the staged pipeline, and
// that internal/sparql's PlanCache wraps for compiled plan shapes.
//
// Entries are keyed on normalized question text and stamped with the KB
// snapshot generation they were computed against: a lookup whose
// generation no longer matches evicts the entry and misses, so any
// store write (an Add, AddAll or ApplyBatch that actually changed
// something) invalidates every previously cached answer without the
// cache ever watching the store. Nothing expires by time: an answer,
// negative or not, recomputed at the same generation is the same
// answer. Sharding keeps the per-request
// critical section to one shard mutex; capacity is enforced per shard
// (total capacity is split evenly), giving an approximate global LRU
// with no cross-shard coordination.
//
// A plan shape is a pure function of the query text, so the plan cache
// reads and writes every entry at one constant generation: for it the
// stamp never fires, and only capacity evicts.
package qacache

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// nShards is the shard count; a power of two so hashing can mask.
const nShards = 16

// Cache is a sharded LRU keyed by string with generation-stamped
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
// callers gate "disabled" above this package.
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
// entry stored under a different generation is stale: it is evicted and
// the lookup misses.
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
		// Evict only entries *older* than the requester's snapshot: a
		// newer entry means this requester pinned a pre-write snapshot
		// while another request already refreshed the key — deleting it
		// (or letting the stale requester's Put overwrite it) would
		// thrash the fresh answer.
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
// least recently used entry when over capacity.
func (c *Cache[V]) Put(key string, gen uint64, v V) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		e := el.Value.(*entry[V])
		if gen < e.gen {
			return // never clobber a fresher entry with a stale result
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
// (evictions count every removal: capacity and generation staleness).
func (c *Cache[V]) Stats() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// Normalize canonicalises question text for cache keying. It is
// deliberately conservative — only transformations that cannot change
// the pipeline's output are applied: surrounding whitespace is trimmed,
// internal whitespace runs (unicode.IsSpace) collapse to single spaces,
// and one trailing '?', '.' or '!' is dropped (the tokenizer discards
// it anyway). Case is preserved: entity linking is case-sensitive, so
// folding could alias questions with different answers. Bytes that are
// not UTF-8 are kept as they are. Unless a whitespace run must
// collapse, it returns a substring of q and allocates nothing.
func Normalize(q string) string {
	q = strings.TrimFunc(q, unicode.IsSpace)
	prevSpace := false
	for i := 0; i < len(q); {
		r, size := rune(q[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(q[i:])
		}
		if unicode.IsSpace(r) {
			if r != ' ' || prevSpace {
				q = collapse(q)
				break
			}
			prevSpace = true
		} else {
			prevSpace = false
		}
		i += size
	}
	if n := len(q); n > 0 {
		switch q[n-1] {
		case '?', '.', '!':
			q = strings.TrimRight(q[:n-1], " ")
		}
	}
	return q
}

// collapse rewrites q's whitespace runs as single spaces, dropping those
// at either end.
func collapse(q string) string {
	var b strings.Builder
	b.Grow(len(q))
	space := false // a run is pending between two words
	for i := 0; i < len(q); {
		r, size := rune(q[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(q[i:])
		}
		if unicode.IsSpace(r) {
			space = b.Len() > 0
		} else {
			if space {
				b.WriteByte(' ')
				space = false
			}
			b.WriteString(q[i : i+size])
		}
		i += size
	}
	return b.String()
}
