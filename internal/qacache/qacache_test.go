package qacache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	c := New[int](64)
	if _, ok := c.Get("q", 1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("q", 1, 42)
	v, ok := c.Get("q", 1)
	if !ok || v != 42 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Errorf("stats = %d hits / %d misses / %d evictions", hits, misses, evictions)
	}
}

// TestEvictionsCounted: every removal is counted once — capacity
// overflow and a lookup at a newer generation — and an
// older-generation miss or an in-place re-Put removes nothing.
func TestEvictionsCounted(t *testing.T) {
	const capacity, n = 32, 500
	c := New[int](capacity)
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("key-%d", i), 1, i)
	}
	_, _, evictions := c.Stats()
	if want := uint64(n - c.Len()); evictions != want {
		t.Fatalf("capacity evictions = %d, want %d (inserted %d, retained %d)",
			evictions, want, n, c.Len())
	}

	c = New[int](64)
	c.Put("gen", 2, 0)
	c.Put("gen", 2, 1) // in place
	c.Get("gen", 1)    // older reader: miss, entry kept
	c.Get("gen", 3)    // newer reader: evicts
	if _, _, evictions := c.Stats(); evictions != 1 || c.Len() != 0 {
		t.Fatalf("evictions = %d, len = %d; want 1, 0", evictions, c.Len())
	}
}

func TestGenerationMismatchEvicts(t *testing.T) {
	c := New[string](64)
	c.Put("q", 3, "old")
	if _, ok := c.Get("q", 4); ok {
		t.Fatal("stale generation served")
	}
	// The stale entry is gone even for its original generation.
	if _, ok := c.Get("q", 3); ok {
		t.Fatal("stale entry survived eviction")
	}
	c.Put("q", 4, "new")
	if v, ok := c.Get("q", 4); !ok || v != "new" {
		t.Fatalf("refreshed entry: %q, %v", v, ok)
	}
}

// TestStaleRequesterCannotThrashFreshEntry: a request that pinned a
// pre-write snapshot must neither evict nor overwrite an entry already
// refreshed under a newer generation.
func TestStaleRequesterCannotThrashFreshEntry(t *testing.T) {
	c := New[string](64)
	c.Put("q", 6, "fresh")
	// Stale reader (gen 5): miss, but the fresh entry survives.
	if _, ok := c.Get("q", 5); ok {
		t.Fatal("newer entry served to an older-generation reader")
	}
	if v, ok := c.Get("q", 6); !ok || v != "fresh" {
		t.Fatalf("fresh entry gone after stale Get: %q, %v", v, ok)
	}
	// Stale writer (gen 5): dropped, the fresh entry survives.
	c.Put("q", 5, "stale")
	if v, ok := c.Get("q", 6); !ok || v != "fresh" {
		t.Fatalf("stale Put clobbered fresh entry: %q, %v", v, ok)
	}
}

func TestPutReplacesAndRestamps(t *testing.T) {
	c := New[int](64)
	c.Put("q", 1, 10)
	c.Put("q", 2, 20)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if v, ok := c.Get("q", 2); !ok || v != 20 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
}

func TestLRUEvictionBounded(t *testing.T) {
	// Capacity 16 = 1 entry per shard: every shard keeps only its most
	// recent key.
	c := New[int](16)
	const n = 1000
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("q%d", i), 1, i)
	}
	if got := c.Len(); got > 16 {
		t.Fatalf("Len = %d, want <= 16", got)
	}
}

func TestLRUEvictsOldestFirst(t *testing.T) {
	// Single-shard view: drive keys that land in one shard by using the
	// per-shard capacity of a larger cache and checking recency order.
	c := New[int](nShards * 2) // 2 entries per shard
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if fnv32(k)&(nShards-1) == 0 {
			keys = append(keys, k)
		}
	}
	c.Put(keys[0], 1, 0)
	c.Put(keys[1], 1, 1)
	c.Get(keys[0], 1) // refresh 0 → 1 is now LRU
	c.Put(keys[2], 1, 2)
	if _, ok := c.Get(keys[1], 1); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(keys[0], 1); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Get(keys[2], 1); !ok {
		t.Error("newest entry evicted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("q%d", i%40)
				c.Put(k, uint64(i%3), i)
				c.Get(k, uint64(i%3))
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 128 {
		t.Fatalf("Len = %d over capacity", c.Len())
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"Which book is written by Orhan Pamuk?":       "Which book is written by Orhan Pamuk",
		"  Which   book\tis written by Orhan Pamuk ?": "Which book is written by Orhan Pamuk",
		"How tall is Michael Jordan":                  "How tall is Michael Jordan",
		"Who wrote Snow.":                             "Who wrote Snow",
		"":                                            "",
		"?":                                           "",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
	// Case is preserved (entity linking is case-sensitive).
	if Normalize("who wrote snow") == Normalize("Who wrote Snow") {
		t.Error("Normalize must not fold case")
	}
}
