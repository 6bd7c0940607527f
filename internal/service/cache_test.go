package service

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", []byte("A"))
	data, ok := c.Get("a")
	if !ok || string(data) != "A" {
		t.Fatalf("Get(a) = %q, %v", data, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Len != 1 || st.Cap != 4 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / len 1 / cap 4", st)
	}
}

// TestCacheLRUEviction: a Put beyond the capacity counts one eviction
// and drops the least recently used entry (the order itself is
// internal/lru's, tested there); a re-Put of a held key evicts nothing.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	c.Get("a")
	c.Put("a", []byte("A"))
	if st := c.Stats(); st.Evictions != 0 || st.Len != 2 {
		t.Fatalf("stats = %+v, want no eviction, len 2", st)
	}
	c.Put("c", []byte("C"))
	if _, ok := c.peek("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Len != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, len 2", st)
	}
}

// TestCachePeekDoesNotCount: the worker-side double check must not move
// counters or recency.
func TestCachePeekDoesNotCount(t *testing.T) {
	c := NewCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	before := c.Stats()
	if _, ok := c.peek("a"); !ok {
		t.Fatal("peek(a) missed")
	}
	if _, ok := c.peek("nope"); ok {
		t.Fatal("peek(nope) hit")
	}
	if after := c.Stats(); after != before {
		t.Fatalf("peek moved counters: %+v -> %+v", before, after)
	}
	// a's recency was untouched by peek, so it is still the LRU victim.
	c.Put("c", []byte("C"))
	if _, ok := c.peek("a"); ok {
		t.Fatal("peek should not have refreshed a's recency")
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	if got := NewCache(0).Stats().Cap; got != DefaultCacheSize {
		t.Fatalf("default cap = %d, want %d", got, DefaultCacheSize)
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; run with
// -race this is the data-race proof for the shared result store.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				c.Put(key, []byte(key))
				c.Get(key)
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Len > 8 {
		t.Fatalf("cache overflowed its bound: %+v", st)
	}
}
