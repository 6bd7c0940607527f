// Package cell assembles the CellDTA machine: N SPEs (each an SPU
// pipeline + local store + LSE + MFC), the shared main memory, the
// EIB-like interconnect, one DSE per node and a PPE that offloads the
// TLP activity and collects completion tokens — the platform of the
// paper's §4 evaluation (CellSim extended with DTA support).
package cell

import (
	"fmt"

	"repro/internal/dta"
	"repro/internal/ls"
	"repro/internal/mem"
	"repro/internal/mfc"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/spu"
)

// Config is the whole-machine configuration.
type Config struct {
	SPEs  int // number of SPEs (paper: 8)
	Nodes int // DTA nodes; SPEs are split evenly (paper platform: 1)

	Mem mem.Config
	LS  ls.Config
	Noc noc.Config
	MFC mfc.Config
	SPU spu.Config
	LSE dta.LSEConfig
	DSE dta.DSEConfig

	// MaxCycles aborts runaway simulations (0 = no limit).
	MaxCycles sim.Cycle

	// Record enables full timeline recording (SPU dispatch/burst
	// windows, MFC DMA lifetimes, NoC message spans, thread lifecycle)
	// into a trace.Recorder surfaced as Result.Rec, each track bounded
	// by trace.DefaultSpanCap. It stays a value type so Config remains a
	// comparable pool key.
	Record bool
}

// DefaultConfig returns the paper's operating point (Tables 2 and 4,
// eight SPEs, one node).
func DefaultConfig() Config {
	return Config{
		SPEs:      8,
		Nodes:     1,
		Mem:       mem.DefaultConfig(),
		LS:        ls.DefaultConfig(),
		Noc:       noc.DefaultConfig(),
		MFC:       mfc.DefaultConfig(),
		SPU:       spu.DefaultConfig(),
		LSE:       dta.DefaultLSEConfig(),
		DSE:       dta.DefaultDSEConfig(),
		MaxCycles: 2_000_000_000,
	}
}

// MaxSPEs bounds Config.SPEs. A local store is backed only by the prefix
// a run has written, so building a machine is cheap (New allocates 209
// KiB for mmul(32) at 8 SPEs, 687 KiB at 64), but a run can grow each
// SPE's store to its full 156 kB: about 10 MB at 64 SPEs. The count
// reaches New straight from a dtad request body, so without a bound one
// request could ask a worker for gigabytes (16 GB of local store at
// 100000). 64 is eight times the paper's machine; nothing in the
// repository uses more than 16.
const MaxSPEs = 64

// Validate checks structural sanity of the configuration.
func (c Config) Validate() error {
	if c.SPEs <= 0 || c.SPEs > MaxSPEs {
		return fmt.Errorf("cell: SPEs = %d outside [1, %d]", c.SPEs, MaxSPEs)
	}
	if c.Nodes <= 0 || c.SPEs%c.Nodes != 0 {
		return fmt.Errorf("cell: %d SPEs not divisible into %d nodes", c.SPEs, c.Nodes)
	}
	if c.LS.SizeBytes <= c.LSE.NumFrames*dta.FrameBytes {
		return fmt.Errorf("cell: local store (%d B) cannot hold %d frames",
			c.LS.SizeBytes, c.LSE.NumFrames)
	}
	// A negative latency would let an effect land before its cause; the
	// network in particular relies on a delivery lying after its Send.
	for _, lat := range []struct {
		field string
		v     int
	}{
		{"Mem.Latency", c.Mem.Latency},
		{"Noc.HopLatency", c.Noc.HopLatency},
		{"MFC.CmdLatency", c.MFC.CmdLatency},
		{"LS.Latency", c.LS.Latency},
	} {
		if lat.v < 0 {
			return fmt.Errorf("cell: negative %s = %d", lat.field, lat.v)
		}
	}
	return nil
}

// Endpoint layout: 3 endpoints per SPE, then memory, DSEs, PPE.
func (c Config) spuEP(i int) int { return 3 * i }
func (c Config) mfcEP(i int) int { return 3*i + 1 }
func (c Config) lseEP(i int) int { return 3*i + 2 }
func (c Config) memEP() int      { return 3 * c.SPEs }
func (c Config) dseEP(n int) int { return 3*c.SPEs + 1 + n }
func (c Config) ppeEP() int      { return 3*c.SPEs + 1 + c.Nodes }
func (c Config) nodeOf(spe int) int {
	return spe / (c.SPEs / c.Nodes)
}
