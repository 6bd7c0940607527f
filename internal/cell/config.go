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

	// TraceCap enables thread-lifecycle tracing with the given event
	// capacity (0 disables tracing).
	TraceCap int

	// Record enables full timeline recording (SPU dispatch/burst
	// windows, MFC DMA lifetimes, NoC message spans, thread lifecycle)
	// into a trace.Recorder surfaced as Result.Rec. RecordCap bounds
	// each span track (0 = trace.DefaultSpanCap). Both stay value types
	// so Config remains a comparable pool key.
	Record    bool
	RecordCap int

	// Profile enables the guest cycle profiler: every simulated SPU
	// cycle is attributed to (template block, PC, stall cause) in a
	// stats.Profile surfaced as Result.Prof (export with internal/prof).
	// Like Record it is a value type (Config stays a comparable pool
	// key) and it does not perturb simulation results — the profile is
	// fed from the same charges as the stats breakdown.
	Profile bool
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

// Validate checks structural sanity of the configuration.
func (c Config) Validate() error {
	if c.SPEs <= 0 {
		return fmt.Errorf("cell: SPEs = %d", c.SPEs)
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
