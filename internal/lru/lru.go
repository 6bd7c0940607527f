// Package lru is the repository's one least-recently-used store: the
// dtad result cache, a worker's base contexts, the harness run cache
// and the checkpoint cache are all a Cache.
//
// A Cache is bounded by a total cost: cost 1 per entry bounds the entry
// count, cost len(blob) bounds the bytes. After a Put, the least
// recently used entries are evicted until the total fits the limit,
// except that the entry just put is never evicted, even when it alone
// exceeds the limit — otherwise an oversized entry would thrash forever.
// Every operation is O(1). A Cache does no locking: callers confine it
// to one goroutine or guard it themselves.
package lru

// Cache maps keys to values in recency order.
type Cache[K comparable, V any] struct {
	limit   int64
	cost    func(V) int64
	onEvict func(K, V)
	total   int64
	items   map[K]*entry[K, V]
	// root is the sentinel of a circular list: root.next is the most
	// recently used entry, root.prev the least.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	prev, next *entry[K, V]
	key        K
	val        V
	cost       int64
}

// New returns an empty cache holding at most limit total cost. cost
// prices a value (nil prices every value 1, a count bound); onEvict,
// when non-nil, is called with each entry a Put evicts, after the
// entry has left the cache.
func New[K comparable, V any](limit int64, cost func(V) int64, onEvict func(K, V)) *Cache[K, V] {
	c := &Cache[K, V]{limit: limit, cost: cost, onEvict: onEvict, items: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value under k and makes it the most recently used.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	if e := c.items[k]; e != nil {
		c.unlink(e)
		c.pushFront(e)
		return e.val, true
	}
	return v, false
}

// Peek is Get without touching the recency order.
func (c *Cache[K, V]) Peek(k K) (v V, ok bool) {
	if e := c.items[k]; e != nil {
		return e.val, true
	}
	return v, false
}

// Put stores v under k (replacing any value there) as the most recently
// used entry, then evicts least recently used entries while the total
// cost exceeds the limit, never the entry just put.
func (c *Cache[K, V]) Put(k K, v V) {
	e := c.items[k]
	if e != nil {
		c.total -= e.cost
		c.unlink(e)
	} else {
		e = &entry[K, V]{key: k}
		c.items[k] = e
	}
	e.val, e.cost = v, 1
	if c.cost != nil {
		e.cost = c.cost(v)
	}
	c.total += e.cost
	c.pushFront(e)
	for c.total > c.limit && c.root.prev != e {
		old := c.root.prev
		c.drop(old)
		if c.onEvict != nil {
			c.onEvict(old.key, old.val)
		}
	}
}

// Remove deletes k without reporting an eviction.
func (c *Cache[K, V]) Remove(k K) (v V, ok bool) {
	if e := c.items[k]; e != nil {
		c.drop(e)
		return e.val, true
	}
	return v, false
}

// Len reports the entry count.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Cost reports the total cost of the entries held.
func (c *Cache[K, V]) Cost() int64 { return c.total }

func (c *Cache[K, V]) drop(e *entry[K, V]) {
	c.unlink(e)
	delete(c.items, e.key)
	c.total -= e.cost
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}
