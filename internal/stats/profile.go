package stats

import "sort"

// Loc identifies one guest program counter: a template's code block and
// the instruction index within it. The zero Template is valid; idle
// cycles (no thread resident) carry IdleLoc.
type Loc struct {
	Template int32 // program template index (-1: no thread resident)
	Block    uint8 // program.BlockKind
	PC       int32 // instruction index within the block
}

// IdleLoc is the synthetic location idle cycles attribute to.
var IdleLoc = Loc{Template: -1}

type profKey struct {
	Loc   Loc
	Cause Cause
}

// Profile is the per-PC cycle store of the guest profiler: a map from
// (location, cause) to cycles, filled by the SPU's charge paths when
// cell.Config.Profile is set. Like trace.Recorder, a nil *Profile is a
// valid no-op sink — every method nil-checks, so the unprofiled engine
// pays one predictable branch per charge and allocates nothing.
//
// All SPUs of a machine share one Profile (the engine is
// single-threaded), so a machine's profile aggregates across SPEs.
type Profile struct {
	m map[profKey]int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{m: make(map[profKey]int64)}
}

// Add attributes n cycles at loc to cause c. Bulk-friendly: a burst
// window charges once with the window's width, not once per cycle.
func (p *Profile) Add(loc Loc, c Cause, n int64) {
	if p == nil || n <= 0 {
		return
	}
	p.m[profKey{Loc: loc, Cause: c}] += n
}

// Reset clears the store for machine reuse (pool safety: a pooled
// machine must not leak a previous run's samples).
func (p *Profile) Reset() {
	if p == nil {
		return
	}
	clear(p.m)
}

// Len returns the number of distinct (location, cause) samples.
func (p *Profile) Len() int {
	if p == nil {
		return 0
	}
	return len(p.m)
}

// Total returns the cycles across all samples. On a completed run this
// equals the aggregate Breakdown total (both are fed from the same
// charges).
func (p *Profile) Total() int64 {
	if p == nil {
		return 0
	}
	var t int64
	for _, v := range p.m {
		t += v
	}
	return t
}

// LocSample is one location's aggregated cycle attribution.
type LocSample struct {
	Loc    Loc
	Causes CauseBreakdown
	Total  int64
}

// Samples returns the per-location attribution in deterministic
// (template, block, pc) order — the export order of obs.WriteProfile, so
// identical runs encode to identical profiles.
func (p *Profile) Samples() []LocSample {
	if p == nil {
		return nil
	}
	byLoc := make(map[Loc]int, len(p.m))
	var out []LocSample
	for k, v := range p.m {
		i, ok := byLoc[k.Loc]
		if !ok {
			i = len(out)
			byLoc[k.Loc] = i
			out = append(out, LocSample{Loc: k.Loc})
		}
		out[i].Causes[k.Cause] += v
		out[i].Total += v
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Loc, out[j].Loc
		if a.Template != b.Template {
			return a.Template < b.Template
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.PC < b.PC
	})
	return out
}

// Causes folds the store by cause (the per-run totals surfaced in
// metrics and tables).
func (p *Profile) Causes() CauseBreakdown {
	var out CauseBreakdown
	if p == nil {
		return out
	}
	for k, v := range p.m {
		out[k.Cause] += v
	}
	return out
}

// Equal reports whether two profiles hold identical samples (both nil
// or both empty count as equal) — the differential suites' comparison.
func (p *Profile) Equal(o *Profile) bool {
	if p.Len() != o.Len() {
		return false
	}
	if p == nil || o == nil {
		return true
	}
	for k, v := range p.m {
		if o.m[k] != v {
			return false
		}
	}
	return true
}
