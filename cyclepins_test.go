package celldta

import (
	"testing"

	"repro/internal/cell"
)

// TestPaperSizeCyclePins pins the cycle counts of the paper-size runs —
// mmul(32), zoom(32), bitcnt(10000), seed 42, 8 SPEs, memory latency 150,
// without and with the prefetch pass — together with the interconnect's
// message count and queue high-water mark. The rest of the suite checks
// results and internal consistency on small programs; a timing change
// that stays self-consistent (memory servicing a request one cycle off
// under contention moved bitcnt from 2,923,394 to 2,949,368 cycles) got
// past all of it. A deliberate model change updates the table and, with
// it, service.EngineVersion.
func TestPaperSizeCyclePins(t *testing.T) {
	type pin struct {
		cycles   int64
		messages int64
		maxQueue int
	}
	for _, tc := range []struct {
		bench    string
		n        int
		orig, pf pin
	}{
		{"mmul", 32, pin{1432752, 132298, 4}, pin{102350, 2314, 4}},
		{"zoom", 32, pin{761276, 82121, 3}, pin{92426, 16681, 3}},
		{"bitcnt", 10000, pin{2923394, 208017, 4}, pin{1633230, 90484, 4}},
	} {
		p := Params{N: tc.n, Seed: 42}
		if tc.bench != "bitcnt" { // bitcnt's chunking is fixed by the workload
			p.Workers = AutoWorkers(8, 32)
		}
		prog, err := BuildWorkload(tc.bench, p)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := Transform(prog)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.SPEs = 8
		cfg.Mem.Latency = 150
		for _, run := range []struct {
			name string
			prog *Program
			want pin
		}{{"original", prog, tc.orig}, {"prefetched", pf, tc.pf}} {
			res, err := Execute(cfg, run.prog)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.bench, run.name, err)
			}
			if res.CheckErr != nil {
				t.Errorf("%s %s: wrong result: %v", tc.bench, run.name, res.CheckErr)
			}
			got := pin{int64(res.Cycles), res.Net.Messages, res.Net.MaxQueue}
			if got != run.want {
				t.Errorf("%s %s: {cycles, noc messages, noc max queue} = %+v, pinned %+v",
					tc.bench, run.name, got, run.want)
			}
		}
	}
}

// TestPaperSizeEventPins pins, beside the cycles, what two of those runs
// cost the host in engine events (cell.Machine.ComponentTicks): mmul(32)
// without prefetching, the blocking-READ machine every figure divides
// by, and with it. A READ is a request and a response, both into timed
// endpoints, so the network spends no event on either and is ticked only
// for the few hundred scheduler messages; the memory's count is the
// service-cycle rule at work (one tick per request, one per response) and
// moves only with the model. The prefetched total is where the SPU's
// burst horizon shows: a stale, too-early horizon changes no result,
// only how many ticks the SPUs take.
func TestPaperSizeEventPins(t *testing.T) {
	prog, err := BuildWorkload("mmul", Params{N: 32, Seed: 42, Workers: AutoWorkers(8, 32)})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Transform(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SPEs = 8
	cfg.Mem.Latency = 150
	for _, tc := range []struct {
		name     string
		prog     *Program
		memory   int64
		maxTotal int64
	}{
		// 3.55 events per READ where the ticked path took 5.56 (364,429).
		{"original", prog, 132086, 240000},
		{"prefetched", pf, 2104, 42317},
	} {
		m, err := cell.New(cfg, tc.prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		ticks := make(map[string]int64)
		var total int64
		for _, c := range m.ComponentTicks() {
			ticks[c.Name] = c.Ticks
			total += c.Ticks
		}
		if got := ticks["memory"]; got != tc.memory {
			t.Errorf("%s: memory ticked %d times, pinned %d", tc.name, got, tc.memory)
		}
		// The prefetched run's DMA data goes to ticked endpoints.
		if got := ticks["noc"]; tc.prog == prog && got*100 >= res.Net.Messages {
			t.Errorf("%s: noc ticked %d times for %d messages, want under 1%%", tc.name, got, res.Net.Messages)
		}
		if total > tc.maxTotal {
			t.Errorf("%s: %d component ticks in all (%.2f per READ), want at most %d",
				tc.name, total, float64(total)/float64(res.Agg.Instr.Read), tc.maxTotal)
		}
	}
}
