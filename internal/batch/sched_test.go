package batch

import (
	"fmt"
	"reflect"
	"testing"
)

// keyedSliceFeed serves keyed tasks from a slice, honouring the
// KeyedFeed contract.
func keyedSliceFeed(tasks []KeyedTask) KeyedFeed {
	next := 0
	return func(block bool) (KeyedTask, bool) {
		if next >= len(tasks) {
			return nil, false
		}
		t := tasks[next]
		next++
		return t, true
	}
}

// TestRunScheduledOrdersByKey pins the virtual-time schedule: fibers
// advance in key order, not admission order, and the horizon handed to
// each yield is the earliest key among the remaining ready fibers.
func TestRunScheduledOrdersByKey(t *testing.T) {
	var trace []string
	mk := func(name string, keys ...int64) KeyedTask {
		return func(yield func(int64) int64) {
			for i, k := range keys {
				h := yield(k)
				trace = append(trace, fmt.Sprintf("%s%d@%d h=%d", name, i, k, h))
			}
		}
	}
	// a holds the early keys, b interleaves, admission order a then b.
	RunScheduled(2, keyedSliceFeed([]KeyedTask{
		mk("a", 10, 30),
		mk("b", 20, 25),
	}))
	want := []string{
		"a0@10 h=20",                     // a leads (key 10), may run until b is due at 20
		"b0@20 h=30",                     // b next; a re-queued at 30
		"b1@25 h=30",                     // b still leads: two consecutive slices, no switch
		"a1@30 h=" + fmt.Sprint(Waiting), // a alone: run to completion
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

// TestRunScheduledTieBreak: same-key fibers run in admission order, so
// the schedule stays a pure function of the feed.
func TestRunScheduledTieBreak(t *testing.T) {
	var trace []string
	mk := func(name string) KeyedTask {
		return func(yield func(int64) int64) {
			yield(7)
			trace = append(trace, name+"0")
			yield(7)
			trace = append(trace, name+"1")
		}
	}
	RunScheduled(3, keyedSliceFeed([]KeyedTask{mk("a"), mk("b"), mk("c")}))
	want := []string{"a0", "a1", "b0", "b1", "c0", "c1"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

// TestRunScheduledWaiting: a fiber yielding Waiting parks off the ready
// queue and resumes only once no sibling is ready — the run-cache
// inflight-wait primitive. The computing fiber must finish its keyed
// slices first, however early the waiter was admitted.
func TestRunScheduledWaiting(t *testing.T) {
	var trace []string
	computed := false
	waiter := func(name string) KeyedTask {
		return func(yield func(int64) int64) {
			for !computed {
				yield(Waiting)
			}
			trace = append(trace, name)
		}
	}
	RunScheduled(3, keyedSliceFeed([]KeyedTask{
		waiter("w1"),
		func(yield func(int64) int64) {
			yield(100)
			trace = append(trace, "compute-a")
			yield(200)
			trace = append(trace, "compute-b")
			computed = true
		},
		waiter("w2"),
	}))
	// Waiters wake in park order, strictly after the computing fiber ran
	// out of keyed work.
	want := []string{"compute-a", "compute-b", "w1", "w2"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

// TestRunScheduledAllWaiting: when every live fiber parks Waiting (no
// computing sibling at all), the scheduler must resume them rather than
// deadlock, in park order.
func TestRunScheduledAllWaiting(t *testing.T) {
	var trace []string
	mk := func(name string) KeyedTask {
		return func(yield func(int64) int64) {
			yield(Waiting)
			trace = append(trace, name)
		}
	}
	RunScheduled(4, keyedSliceFeed([]KeyedTask{mk("a"), mk("b"), mk("c")}))
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

// TestRunScheduledWakeAfterFeed: a parked waiter coexists with fresh
// admissions — fibers fed after it park or run by key as usual, and the
// waiter still wakes once the ready queue drains.
func TestRunScheduledWakeAfterFeed(t *testing.T) {
	var trace []string
	done := false
	ch := make(chan int, 3)
	ch <- 0
	ch <- 1
	ch <- 2
	close(ch)
	RunScheduled(2, KeyedFeedChan(ch, func(i int) KeyedTask {
		if i == 0 {
			return func(yield func(int64) int64) {
				for !done {
					yield(Waiting)
				}
				trace = append(trace, "waiter")
			}
		}
		return func(yield func(int64) int64) {
			yield(int64(10 * i))
			trace = append(trace, fmt.Sprintf("task%d", i))
			if i == 2 {
				done = true
			}
		}
	}))
	want := []string{"task1", "task2", "waiter"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

// TestRunScheduledSharesStateSafely is the lock-free-sharing contract
// under -race for the keyed scheduler, mirroring the round-robin test.
func TestRunScheduledSharesStateSafely(t *testing.T) {
	counter := 0
	var tasks []KeyedTask
	for i := 0; i < 16; i++ {
		i := i
		tasks = append(tasks, func(yield func(int64) int64) {
			for j := 0; j < 100; j++ {
				counter++
				yield(int64((i*100 + j) % 17))
			}
		})
	}
	RunScheduled(4, keyedSliceFeed(tasks))
	if counter != 16*100 {
		t.Fatalf("counter = %d, want %d", counter, 16*100)
	}
}

// TestRunScheduledPropagatesPanic mirrors the round-robin contract: an
// uncontained task panic surfaces on the scheduler's goroutine.
func TestRunScheduledPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	RunScheduled(2, keyedSliceFeed([]KeyedTask{func(yield func(int64) int64) { panic("boom") }}))
	t.Fatal("RunScheduled returned despite panicking task")
}

// TestRunScheduledEmptyFeed returns immediately.
func TestRunScheduledEmptyFeed(t *testing.T) {
	RunScheduled(4, keyedSliceFeed(nil))
}
