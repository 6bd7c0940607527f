package cell_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/prefetch"
	"repro/internal/synth"
)

// TestStopCycleArrivalsKeepResult pins the results of the corpus runs
// in which a message other than the PPE's own arrives on the cycle the
// PPE stops the machine: a frame-freed to a DSE, before or after the
// stopping mailbox post in send order. The PPE is the engine's first
// component, so the machine stops before the DSE takes that message;
// it changes a free-frame count and nothing a Result reports, and the
// message counts as delivered all the same (Net.Messages counts from
// the delivery cycle). The digests were taken when the network still
// delivered every message due on the stop cycle from its own tick.
func TestStopCycleArrivalsKeepResult(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		latency  int
		pf       bool
		cycles   int64
		messages int64
		digest   string
	}{
		{342, 150, true, 1774, 99, "60eb7e29618c3932"},
		{436, 150, false, 2197, 125, "e454fa49079df49c"},
		{215, 1, false, 1054, 194, "35e6d26d23f83489"},
		{479, 1, false, 645, 134, "09802f50f007a7a8"},
		{479, 1, true, 667, 48, "238e177efcb180a6"},
		{487, 1, false, 1068, 174, "c58b8231c816ca47"},
		{772, 1, false, 5300, 982, "75b7dd5022a32e89"},
	} {
		name := fmt.Sprintf("seed %d latency %d pf %v", tc.seed, tc.latency, tc.pf)
		prog, err := synth.Generate(synth.FromSeed(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		if tc.pf {
			if prog, err = prefetch.Transform(prog); err != nil {
				t.Fatal(err)
			}
		}
		cfg := cell.DefaultConfig()
		cfg.SPEs = synth.FromSeed(tc.seed).SPEs
		cfg.Mem.Latency = tc.latency
		m, err := cell.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stats := fmt.Sprintf("%v %+v %+v %+v %+v %+v %+v",
			res.Tokens, res.SPUs, res.LSEs, res.MFCs, res.DSEs, res.Mem, res.Net)
		sum := sha256.Sum256([]byte(stats))
		got := hex.EncodeToString(sum[:8])
		if int64(res.Cycles) != tc.cycles || res.Net.Messages != tc.messages || got != tc.digest {
			t.Errorf("%s: %d cycles, %d messages, digest %s; pinned %d, %d, %s",
				name, res.Cycles, res.Net.Messages, got, tc.cycles, tc.messages, tc.digest)
		}
	}
}
