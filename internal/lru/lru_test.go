package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// model is the reference LRU: a map plus a slice of keys, most recently
// used first, evicting from the back with a linear scan.
type model struct {
	limit int64
	cost  func(int) int64
	vals  map[int]int
	order []int
}

func (m *model) total() int64 {
	var t int64
	for _, k := range m.order {
		t += m.price(m.vals[k])
	}
	return t
}

func (m *model) price(v int) int64 {
	if m.cost == nil {
		return 1
	}
	return m.cost(v)
}

func (m *model) touch(k int) {
	i := slices.Index(m.order, k)
	m.order = slices.Insert(slices.Delete(m.order, i, i+1), 0, k)
}

func (m *model) get(k int) (int, bool) {
	v, ok := m.vals[k]
	if ok {
		m.touch(k)
	}
	return v, ok
}

func (m *model) put(k, v int) (evicted [][2]int) {
	if _, ok := m.vals[k]; ok {
		m.touch(k)
	} else {
		m.order = slices.Insert(m.order, 0, k)
	}
	m.vals[k] = v
	for m.total() > m.limit && len(m.order) > 1 {
		old := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		evicted = append(evicted, [2]int{old, m.vals[old]})
		delete(m.vals, old)
	}
	return evicted
}

func (m *model) remove(k int) (int, bool) {
	v, ok := m.vals[k]
	if ok {
		i := slices.Index(m.order, k)
		m.order = slices.Delete(m.order, i, i+1)
		delete(m.vals, k)
	}
	return v, ok
}

// order walks the cache's list, most recently used first.
func order(c *Cache[int, int]) []int {
	var ks []int
	for e := c.root.next; e != &c.root; e = e.next {
		ks = append(ks, e.key)
	}
	return ks
}

// TestMatchesModel drives seeded random Get/Peek/Put/Remove sequences
// through a Cache and the model and requires the same answers, the same
// evictions in the same order, and the same recency order, entry count
// and total cost after every step — under a count bound and under
// weighted costs with values that can exceed the limit on their own.
func TestMatchesModel(t *testing.T) {
	weight := func(v int) int64 { return int64(v % 37) }
	for seed := int64(1); seed <= 40; seed++ {
		for _, weighted := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/weighted=%v", seed, weighted), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				limit := int64(1 + rng.Intn(6))
				var cost func(int) int64
				if weighted {
					limit, cost = int64(10+rng.Intn(60)), weight
				}
				ref := &model{limit: limit, cost: cost, vals: map[int]int{}}
				var evicted [][2]int
				c := New(limit, cost, func(k, v int) { evicted = append(evicted, [2]int{k, v}) })
				for step := 0; step < 400; step++ {
					k := rng.Intn(12)
					var op string
					switch r := rng.Intn(10); {
					case r < 4:
						v := rng.Intn(1000)
						op = fmt.Sprintf("Put(%d, %d)", k, v)
						evicted = evicted[:0]
						want := ref.put(k, v)
						c.Put(k, v)
						if !slices.Equal(evicted, want) {
							t.Fatalf("step %d %s: evicted %v, model %v", step, op, evicted, want)
						}
					case r < 7:
						op = fmt.Sprintf("Get(%d)", k)
						v, ok := c.Get(k)
						if wv, wok := ref.get(k); v != wv || ok != wok {
							t.Fatalf("step %d %s = %d, %v; model %d, %v", step, op, v, ok, wv, wok)
						}
					case r < 9:
						op = fmt.Sprintf("Peek(%d)", k)
						v, ok := c.Peek(k)
						if wv, wok := ref.vals[k]; v != wv || ok != wok {
							t.Fatalf("step %d %s = %d, %v; model %d, %v", step, op, v, ok, wv, wok)
						}
					default:
						op = fmt.Sprintf("Remove(%d)", k)
						v, ok := c.Remove(k)
						if wv, wok := ref.remove(k); v != wv || ok != wok {
							t.Fatalf("step %d %s = %d, %v; model %d, %v", step, op, v, ok, wv, wok)
						}
					}
					if got := order(c); !slices.Equal(got, ref.order) {
						t.Fatalf("step %d %s: order %v, model %v", step, op, got, ref.order)
					}
					if c.Len() != len(ref.order) || c.Cost() != ref.total() {
						t.Fatalf("step %d %s: len %d cost %d, model %d / %d",
							step, op, c.Len(), c.Cost(), len(ref.order), ref.total())
					}
				}
			})
		}
	}
}

// TestCountBoundEvictsLeastRecentlyUsed: a Get refreshes recency, so
// the entry neither put nor read since goes first, and a re-Put
// refreshes like a Get.
func TestCountBoundEvictsLeastRecentlyUsed(t *testing.T) {
	var evicted []string
	c := New(2, nil, func(k string, _ int) { evicted = append(evicted, k) })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")
	c.Put("c", 3) // evicts b
	c.Put("a", 1) // refresh, no eviction
	c.Put("d", 4) // evicts c
	if !slices.Equal(evicted, []string{"b", "c"}) {
		t.Fatalf("evicted %v, want [b c]", evicted)
	}
	for k, want := range map[string]bool{"a": true, "b": false, "c": false, "d": true} {
		if _, ok := c.Peek(k); ok != want {
			t.Errorf("%s present = %v, want %v", k, ok, want)
		}
	}
}

// TestPeekDoesNotTouch: a peeked entry stays the eviction victim.
func TestPeekDoesNotTouch(t *testing.T) {
	c := New[string, int](2, nil, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Peek("a")
	c.Put("c", 3)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("peek refreshed a's recency")
	}
}

// TestByteBoundKeepsNewest: under a byte bound the coldest entries go
// first, and an entry larger than the whole bound evicts everything else
// but stays itself.
func TestByteBoundKeepsNewest(t *testing.T) {
	size := func(b []byte) int64 { return int64(len(b)) }
	var evicted []string
	c := New(100, size, func(k string, _ []byte) { evicted = append(evicted, k) })
	c.Put("a", make([]byte, 40))
	c.Put("b", make([]byte, 40))
	c.Get("a")
	c.Put("c", make([]byte, 40)) // 120 > 100: evicts b
	if !slices.Equal(evicted, []string{"b"}) || c.Len() != 2 || c.Cost() != 80 {
		t.Fatalf("evicted %v, %d entries / %d bytes; want [b], 2 / 80", evicted, c.Len(), c.Cost())
	}
	c.Put("huge", make([]byte, 500))
	if _, ok := c.Peek("huge"); !ok || c.Len() != 1 || c.Cost() != 500 {
		t.Fatalf("oversized put: present %v, %d entries / %d bytes; want it alone", ok, c.Len(), c.Cost())
	}
	if _, ok := c.Remove("huge"); !ok || c.Len() != 0 || c.Cost() != 0 {
		t.Fatalf("Remove left %d entries / %d bytes", c.Len(), c.Cost())
	}
	if len(evicted) != 3 {
		t.Fatalf("Remove reported as an eviction: %v", evicted)
	}
}
