package service

import (
	"sync"

	"repro/internal/lru"
)

// Cache is a bounded, thread-safe LRU mapping run keys to encoded
// result documents. Values are content-addressed — the key is a hash of
// everything that determines the bytes — so entries never go stale
// within one EngineVersion and eviction is purely a capacity concern.
//
// Stored byte slices are shared, not copied: callers must treat both
// inserted and returned values as immutable.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries *lru.Cache[string, []byte]

	hits      int64
	misses    int64
	evictions int64
}

// DefaultCacheSize bounds the cache when the caller does not.
const DefaultCacheSize = 256

// NewCache returns an LRU cache holding at most capacity results
// (DefaultCacheSize when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	c := &Cache{cap: capacity}
	c.entries = lru.New(int64(capacity), nil, func(string, []byte) { c.evictions++ })
	return c
}

// Get returns the cached document for key and records a hit or miss.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.entries.Get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return data, ok
}

// peek is Get without touching the hit/miss counters or recency order —
// used for the worker-side double check so one submission never counts
// twice in the stats.
func (c *Cache) peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Peek(key)
}

// Put stores data under key, evicting the least recently used entry if
// the cache is full. Re-putting an existing key refreshes its recency
// (the data is identical by content addressing).
func (c *Cache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Put(key, data)
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Len       int   `json:"len"`
	Cap       int   `json:"cap"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       c.entries.Len(),
		Cap:       c.cap,
	}
}
