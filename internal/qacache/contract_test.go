// The LRU contract the SPARQL plan-shape cache (sparql.PlanCache, a
// qacache.Cache of shapes) was written against, through the public API:
// capacity, LRU order, generation stamps and the counters.
package qacache_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/qacache"
)

// qacacheShards is qacache's shard count: New(qacacheShards * k) holds
// k entries per shard.
const qacacheShards = 16

func TestGetPutAndStats(t *testing.T) {
	c := qacache.New[int](64)
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", 1, 42)
	v, ok := c.Get("k", 1)
	if !ok || v != 42 {
		t.Fatalf("Get = %d,%v want 42,true", v, ok)
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Fatalf("stats = %d/%d/%d want 1/1/0", hits, misses, evictions)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d want 1", c.Len())
	}
}

// TestCapacityBounded: the cache never holds more than its capacity,
// and every capacity eviction is counted.
func TestCapacityBounded(t *testing.T) {
	const capacity = 32
	c := qacache.New[int](capacity)
	const n = 500
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("key-%d", i), 1, i)
	}
	if got := c.Len(); got > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", got, capacity)
	}
	_, _, evictions := c.Stats()
	if want := uint64(n - c.Len()); evictions != want {
		t.Fatalf("evictions = %d want %d (inserted %d, retained %d)",
			evictions, want, n, c.Len())
	}
}

// sameShardKeys returns n keys qacache places in one shard, found
// through its public API: in a cache of one entry per shard, a key
// whose Put evicts the anchor shares the anchor's shard.
func sameShardKeys(n int) []string {
	keys := []string{"anchor"}
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("probe-%d", i)
		c := qacache.New[int](1)
		c.Put(keys[0], 1, 0)
		c.Put(k, 1, 0)
		if _, ok := c.Get(keys[0], 1); !ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestLRUOrder: a recently-Got entry survives the eviction of a
// never-touched sibling in the same shard.
func TestLRUOrder(t *testing.T) {
	// Two entries per shard. Take three keys that land in one shard;
	// touch the first, insert the third, and the untouched second must
	// be the one evicted.
	c := qacache.New[int](qacacheShards * 2)
	keys := sameShardKeys(3)
	c.Put(keys[0], 1, 0)
	c.Put(keys[1], 1, 1)
	c.Get(keys[0], 1) // refresh the anchor
	c.Put(keys[2], 1, 2)
	if _, ok := c.Get(keys[0], 1); !ok {
		t.Fatal("recently-used entry was evicted")
	}
	if _, ok := c.Get(keys[1], 1); ok {
		t.Fatal("least-recently-used entry survived")
	}
}

// TestGenerationEviction: a lookup at a newer generation misses, evicts
// the stale entry and counts the eviction.
func TestGenerationEviction(t *testing.T) {
	c := qacache.New[int](64)
	c.Put("k", 1, 10)
	if _, ok := c.Get("k", 2); ok {
		t.Fatal("stale entry served at a newer generation")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not evicted: Len = %d", c.Len())
	}
	hits, misses, evictions := c.Stats()
	if hits != 0 || misses != 1 || evictions != 1 {
		t.Fatalf("stats = %d/%d/%d want 0/1/1", hits, misses, evictions)
	}
}

// TestNewerEntrySurvivesOlderReader: a session pinned to a pre-write
// snapshot misses on a fresher entry but must not evict it.
func TestNewerEntrySurvivesOlderReader(t *testing.T) {
	c := qacache.New[int](64)
	c.Put("k", 5, 50)
	if _, ok := c.Get("k", 3); ok {
		t.Fatal("fresher entry served to an older-generation reader")
	}
	v, ok := c.Get("k", 5)
	if !ok || v != 50 {
		t.Fatalf("fresher entry was evicted by the older reader: %d,%v", v, ok)
	}
}

// TestStalePutRefused: a Put below an existing entry's generation must
// not clobber it.
func TestStalePutRefused(t *testing.T) {
	c := qacache.New[int](64)
	c.Put("k", 5, 50)
	c.Put("k", 3, 30)
	v, ok := c.Get("k", 5)
	if !ok || v != 50 {
		t.Fatalf("stale Put clobbered the fresher entry: %d,%v", v, ok)
	}
}

// TestSameGenAndNewerPutUpdate: re-Puts at the same or a newer
// generation replace the value in place (no growth, no eviction).
func TestSameGenAndNewerPutUpdate(t *testing.T) {
	c := qacache.New[int](64)
	c.Put("k", 1, 10)
	c.Put("k", 1, 11)
	if v, _ := c.Get("k", 1); v != 11 {
		t.Fatalf("same-gen Put did not update: %d", v)
	}
	c.Put("k", 2, 20)
	if v, ok := c.Get("k", 2); !ok || v != 20 {
		t.Fatalf("newer Put did not update: %d,%v", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("updates grew the cache: Len = %d", c.Len())
	}
	if _, _, evictions := c.Stats(); evictions != 0 {
		t.Fatalf("updates evicted %d entries", evictions)
	}
}

// TestConcurrent hammers the cache from many goroutines (run under
// -race) and checks the counter bookkeeping stays consistent.
func TestConcurrent(t *testing.T) {
	c := qacache.New[int](128)
	const workers, perWorker = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("key-%d", (w*7+i)%64)
				gen := uint64(1 + i%3)
				if v, ok := c.Get(key, gen); ok && v < 0 {
					t.Error("impossible value")
				}
				c.Put(key, gen, i)
			}
		}(w)
	}
	wg.Wait()
	hits, misses, _ := c.Stats()
	if hits+misses != workers*perWorker {
		t.Fatalf("hits+misses = %d want %d", hits+misses, workers*perWorker)
	}
}
