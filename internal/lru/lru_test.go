package lru

import (
	"fmt"
	"sync"
	"testing"
)

// The LRU contract: Get refreshes recency and Add evicts the least
// recently used entry.
func TestCacheLRU(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get a = %v, %v", v, ok)
	}
	c.Add("c", 3) // "b" is now the LRU entry and must be evicted
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	//pgb:deterministic pure per-key lookups against a settled cache
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Fatalf("Get %s = %v, %v; want %d", k, v, ok, want)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCacheLimitClamp(t *testing.T) {
	c := New[string, int](0) // clamps to 1
	c.Add("a", 1)
	c.Add("b", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived in a 1-entry cache after b was inserted")
	}
}

// Add on a present key keeps the first writer's value, returns it, and
// refreshes the key's recency.
func TestCacheAddFirstWriterWins(t *testing.T) {
	c := New[string, int](2)
	if got := c.Add("a", 1); got != 1 {
		t.Fatalf("Add a = %d, want 1", got)
	}
	c.Add("b", 2)
	if got := c.Add("a", 10); got != 1 {
		t.Fatalf("second Add a = %d, want the stored 1", got)
	}
	if v, _ := c.Get("a"); v != 1 {
		t.Fatalf("a = %d after a second Add, want 1", v)
	}
	c.Add("c", 3) // the repeated Add made "b" the LRU entry
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction after a was refreshed by Add")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// Every Get is exactly one hit or one miss; Add counts as neither.
func TestCacheStatsCount(t *testing.T) {
	c := New[int, string](2)
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("fresh cache stats = %+v", s)
	}
	c.Get(1)
	c.Add(1, "one")
	c.Add(1, "uno")
	c.Get(1)
	c.Get(1)
	c.Add(2, "two")
	c.Add(3, "three") // evicts 1
	c.Get(1)
	want := Stats{Hits: 2, Misses: 2, Entries: 2}
	if s := c.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// Concurrent Gets and Adds must not race (run under -race in CI) and the
// cache must stay within its limit.
func TestCacheConcurrent(t *testing.T) {
	c := New[string, int](8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%16)
				if i%3 == 0 {
					c.Add(key, i)
				} else {
					c.Get(key)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("cache grew past its limit: %d", c.Len())
	}
	if s := c.Stats(); s.Hits+s.Misses != 4*(200-67) {
		t.Fatalf("hits %d + misses %d, want %d Gets", s.Hits, s.Misses, 4*(200-67))
	}
}
