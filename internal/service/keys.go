// Package service turns the experiment harness into a long-running
// simulation service: canonical run keys make results content-
// addressable, a bounded LRU cache serves repeated runs without
// re-simulating, a worker-pool job queue runs each worker's jobs one at
// a time with every simulation single-threaded, and an HTTP/JSON API
// (`dta serve`) exposes submit/poll/stream over all of it.
//
// The whole design leans on one property the harness test suite
// enforces: simulations are byte-for-byte
// deterministic. Identical inputs produce identical outcomes on every
// run and every machine, so a hash of the inputs is a faithful address
// for the output.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/synth"
)

// EngineVersion names the simulation semantics run keys are computed
// under. Bump it whenever a change to the engine, workloads, ISA or
// harness can alter any experiment's cycle counts or stats — old cached
// results then stop matching new submissions instead of serving stale
// numbers. The current value corresponds to the guest cycle profiler PR:
// cycle counts are untouched (profiling is proven non-perturbing), but
// experiment outcomes gained stall_pct and per-cause cycle metrics, so
// cached docs from celldta/2 would be missing them.
const EngineVersion = "celldta/3"

// keySchema versions the hash pre-image layout itself, independently of
// engine semantics.
const keySchema = "dtad-key-v1"

// RunKey returns the canonical content address for one experiment run:
// a SHA-256 over (key schema, engine version, experiment ID, normalised
// harness.Options). Options are normalised through WithDefaults first,
// so Options{} and the explicit paper operating point hash identically.
//
// Workload parameters (problem sizes, worker counts, input seeds) are
// derived deterministically inside the harness from SPEs/Quick/Seed,
// so hashing the normalised Options covers them; if workload derivation
// ever grows an input outside Options, it must be added here (or
// EngineVersion bumped).
func RunKey(experimentID string, opt harness.Options) string {
	return runKey(experimentID, opt, generatorVersionFor(experimentID))
}

// generatorVersionFor returns the extra version component an experiment
// depends on beyond the engine: synth/* experiments run generated
// programs, so their results change whenever the generator does — their
// keys fold in synth.GenVersion. All other experiments depend only on
// the engine, and their pre-images (and therefore keys) are unchanged.
func generatorVersionFor(experimentID string) string {
	if strings.HasPrefix(experimentID, "synth/") {
		return synth.GenVersion
	}
	return ""
}

// runKey computes the canonical key with an explicit generator-version
// component (empty = none; the pre-image is then identical to the
// pre-synth schema, keeping all existing keys stable).
func runKey(experimentID string, opt harness.Options, genVersion string) string {
	opt = opt.WithDefaults()
	pre := fmt.Sprintf("%s|engine=%s|experiment=%s|spes=%d|latency=%d|quick=%t|seed=%d",
		keySchema, EngineVersion, experimentID, opt.SPEs, opt.Latency, opt.Quick, opt.Seed)
	if genVersion != "" {
		pre += "|synthgen=" + genVersion
	}
	sum := sha256.Sum256([]byte(pre))
	return hex.EncodeToString(sum[:])
}
