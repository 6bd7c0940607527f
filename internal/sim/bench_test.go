package sim

import (
	"fmt"
	"testing"
)

// sleeper wakes itself sparsely.
type sleeper struct {
	stride Cycle
	until  Cycle
	e      *Engine
}

func (s *sleeper) Name() string { return "sleeper" }
func (s *sleeper) Tick(now Cycle) Cycle {
	if now >= s.until {
		s.e.Stop()
		return Never
	}
	return now + s.stride
}

// dormant sleeps forever; it only exists to inflate the component count
// the way idle SPEs in a big machine configuration do.
type dormant struct{}

func (dormant) Name() string         { return "dormant" }
func (dormant) Tick(now Cycle) Cycle { return Never }

// BenchmarkEngineSparseWake measures the scheduler in the regime a large
// machine puts it in: many registered components of which only a handful
// are due per event (SPUs asleep in "Wait for DMA" while a few units make
// progress). The linear-scan engine paid O(N) per event here; the heap
// pays O(k log N) for the k due components.
func BenchmarkEngineSparseWake(b *testing.B) {
	for _, comps := range []int{64, 1024} {
		b.Run(fmt.Sprintf("comps=%d", comps), func(b *testing.B) {
			strides := []Cycle{3, 5, 7, 11}
			for i := 0; i < b.N; i++ {
				e := NewEngine()
				for j := 0; j < comps-len(strides); j++ {
					e.Register(dormant{})
				}
				for _, s := range strides {
					e.Register(&sleeper{stride: s, until: 100_000, e: e})
				}
				if _, err := e.Run(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
