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

// TestPaperSizeEventPins pins, beside the cycles, what those runs cost the
// host in engine events (cell.Machine.ComponentTicks): the three runs
// without prefetching, the blocking-READ machine every figure divides
// by, and the three with it. The network is not an engine component:
// every endpoint holds what it is sent and takes it on its own tick, so
// a message costs no event of its own, and the list has no "noc" entry.
// The memory's count is the service-cycle rule at work and moves only
// with the model: one tick per response, and one per request only where
// it could not be serviced at hand-over (mem.Memory), so mmul-orig
// spends 2.56 events per READ where the inbox-only memory spent 3.55
// (232,338) and the ticked network 5.56 (364,429). The prefetched totals
// are where the SPU's kernel windows show: a thread reads its landed
// buffer, and any other local-store bytes no DMA or frame store can
// touch, ahead of the engine clock (spu.SPU.private). A rule that ended
// windows too early would change no result, only how many ticks the
// SPUs take.
func TestPaperSizeEventPins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SPEs = 8
	cfg.Mem.Latency = 150
	for _, tc := range []struct {
		bench    string
		n        int
		pf       bool
		memory   int64
		maxTotal int64
	}{
		{"mmul", 32, false, 67299, 169800}, // inbox-only: 132,086 and 232,338
		{"mmul", 32, true, 2104, 11700},
		{"zoom", 32, false, 51200, 117800}, // inbox-only: 75,790 and 142,347
		{"zoom", 32, true, 16330, 34500},
		{"bitcnt", 10000, false, 100682, 286600}, // inbox-only: 190,981 and 383,838
		{"bitcnt", 10000, true, 43234, 167400},
	} {
		p := Params{N: tc.n, Seed: 42}
		if tc.bench != "bitcnt" {
			p.Workers = AutoWorkers(8, 32)
		}
		prog, err := BuildWorkload(tc.bench, p)
		if err != nil {
			t.Fatal(err)
		}
		name := tc.bench + "-orig"
		if tc.pf {
			name = tc.bench + "-pf"
			if prog, err = Transform(prog); err != nil {
				t.Fatal(err)
			}
		}
		m, err := cell.New(cfg, prog)
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
			t.Errorf("%s: memory ticked %d times, pinned %d", name, got, tc.memory)
		}
		if got, ok := ticks["noc"]; ok {
			t.Errorf("%s: the network is an engine component, ticked %d times", name, got)
		}
		if total > tc.maxTotal {
			t.Errorf("%s: %d component ticks in all (%.2f per READ), want at most %d",
				name, total, float64(total)/float64(res.Agg.Instr.Read), tc.maxTotal)
		}
	}
}
