// Package lru is the one cache of PGB-Go: a generic, mutex-guarded LRU
// map with O(1) operations and hit/miss counters. Add is first-writer-
// wins — every cache in the repo is content-addressed, so racing writers
// computed equal values and one copy stays resident. Cached values are
// shared and must be treated as read-only.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps K to V, holding at most its limit of entries. Create with
// New.
type Cache[K comparable, V any] struct {
	mu           sync.Mutex
	limit        int
	items        map[K]*list.Element
	order        *list.List // of *entry[K, V]; front = most recently used
	hits, misses uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// Stats is a snapshot of a cache's counters, in the JSON shape /healthz
// reports.
type Stats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// New returns a cache of at most limit entries (at least one).
func New[K comparable, V any](limit int) *Cache[K, V] {
	return &Cache[K, V]{limit: max(limit, 1), items: make(map[K]*list.Element), order: list.New()}
}

// Get returns the value stored under key and marks it most recently
// used. Every call counts one hit or one miss.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores val under key unless key is present, evicting the least
// recently used entry when full, and returns the value that ends up
// stored: val, or the earlier writer's value.
func (c *Cache[K, V]) Add(key K, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val
	}
	if c.order.Len() >= c.limit {
		oldest := c.order.Remove(c.order.Back()).(*entry[K, V])
		delete(c.items, oldest.key)
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	return val
}

// Len reports the number of entries stored.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns the hit and miss counts since New and the entry count.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Entries: len(c.items)}
}
