package obs_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// profiledRun executes the prefetch-transformed mmul benchmark and
// returns the run, with its machine's guest profile, plus its result.
func profiledRun(t *testing.T) (obs.Run, *cell.Result) {
	t.Helper()
	w, ok := workloads.Get("mmul")
	if !ok {
		t.Fatal("mmul workload not registered")
	}
	p, err := w.Build(workloads.Params{N: 8, Workers: 4, Seed: 1})
	if err != nil {
		t.Fatalf("build mmul: %v", err)
	}
	pf, err := prefetch.Transform(p)
	if err != nil {
		t.Fatalf("prefetch: %v", err)
	}
	cfg := cell.DefaultConfig()
	cfg.SPEs = 2
	cfg.MaxCycles = 10_000_000
	m, err := cell.New(cfg, pf)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Profile().Len() == 0 {
		t.Fatal("the run profiled no samples")
	}
	return obs.Run{Label: "mmul-pf test run", SPEs: cfg.SPEs, Prog: pf, Prof: m.Profile()}, res
}

// TestProfileAccountsEveryCycle: the profile is fed from the same
// charges as the stats breakdown, so its totals must match exactly —
// per cause and overall.
func TestProfileAccountsEveryCycle(t *testing.T) {
	run, res := profiledRun(t)
	if got, want := run.Prof.Total(), res.Agg.Breakdown.Total(); got != want {
		t.Fatalf("profile total %d != breakdown total %d", got, want)
	}
	if got, want := run.Prof.Causes(), res.Agg.Causes; got != want {
		t.Fatalf("profile causes %v != aggregate causes %v", got, want)
	}
	if res.Agg.Causes.Buckets() != res.Agg.Breakdown {
		t.Fatalf("cause fold %v != breakdown %v", res.Agg.Causes.Buckets(), res.Agg.Breakdown)
	}
}

// TestWriteProfileDeterministic: identical runs encode to identical bytes (no
// timestamps, canonical sample order) — profiles are diffable and
// cache-friendly.
func TestWriteProfileDeterministic(t *testing.T) {
	run, _ := profiledRun(t)
	var a, b bytes.Buffer
	if err := obs.WriteProfile(&a, []obs.Run{run}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteProfile(&b, []obs.Run{run}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same run differ")
	}
}

// TestWriteProfileWireFormat decodes the emitted protobuf with a minimal
// reader and checks the pprof invariants: sample-type count, the empty
// string at table index 0, symbol names present, and sample values
// summing to the simulated cycle total.
func TestWriteProfileWireFormat(t *testing.T) {
	run, res := profiledRun(t)
	var gz bytes.Buffer
	if err := obs.WriteProfile(&gz, []obs.Run{run}); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&gz)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	d := decoded{}
	d.parse(t, raw)

	if want := 1 + int(stats.NumCauses); d.sampleTypes != want {
		t.Fatalf("got %d sample types, want %d", d.sampleTypes, want)
	}
	if len(d.strings) == 0 || d.strings[0] != "" {
		t.Fatal("string table must start with the empty string")
	}
	joined := strings.Join(d.strings, "\n")
	for _, want := range []string{"cycles", "blocking_read", "dma_program",
		"(idle)", "mmul-pf test run"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("string table missing %q", want)
		}
	}
	blockNamed := false
	for _, s := range d.strings {
		for k := program.BlockKind(0); k < program.NumBlocks; k++ {
			if strings.HasSuffix(s, "."+k.String()) {
				blockNamed = true
			}
		}
	}
	if !blockNamed {
		t.Fatal("no block-level function names in string table")
	}

	var total int64
	for _, v := range d.sampleTotals {
		total += v
	}
	if want := res.Agg.Breakdown.Total(); total != want {
		t.Fatalf("encoded cycles %d != simulated %d", total, want)
	}
	if d.locations == 0 || d.functions == 0 {
		t.Fatal("no locations or functions encoded")
	}
}

// TestGoToolPprofTop validates interoperability end to end: the Go
// toolchain's own pprof must read the profile and list simulated code
// blocks.
func TestGoToolPprofTop(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	run, _ := profiledRun(t)
	path := filepath.Join(t.TempDir(), "guest.pb.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteProfile(f, []obs.Run{run}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=50", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "cycles") {
		t.Fatalf("pprof output missing sample unit:\n%s", text)
	}
	if !strings.Contains(text, "mmul") {
		t.Fatalf("pprof output lists no simulated symbols:\n%s", text)
	}

	// Per-cause sample selection must work too.
	out, err = exec.Command("go", "tool", "pprof", "-top", "-sample_index=dma_program", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -sample_index=dma_program: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "pf") {
		t.Fatalf("dma_program view lists no PF blocks:\n%s", out)
	}
}

// decoded is a minimal profile.proto reader for the fields the tests
// assert on.
type decoded struct {
	sampleTypes  int
	sampleTotals []int64 // value[0] of each sample
	locations    int
	functions    int
	strings      []string
}

func (d *decoded) parse(t *testing.T, raw []byte) {
	t.Helper()
	for len(raw) > 0 {
		key, n := uvarint(t, raw)
		raw = raw[n:]
		field, wire := key>>3, key&7
		switch wire {
		case 0:
			_, n := uvarint(t, raw)
			raw = raw[n:]
		case 2:
			l, n := uvarint(t, raw)
			raw = raw[n:]
			body := raw[:l]
			raw = raw[l:]
			switch field {
			case 1:
				d.sampleTypes++
			case 2:
				d.sampleTotals = append(d.sampleTotals, firstValue(t, body))
			case 4:
				d.locations++
			case 5:
				d.functions++
			case 6:
				d.strings = append(d.strings, string(body))
			}
		default:
			t.Fatalf("unexpected wire type %d", wire)
		}
	}
}

// firstValue extracts value[0] from one Sample message (field 2, packed).
func firstValue(t *testing.T, body []byte) int64 {
	t.Helper()
	for len(body) > 0 {
		key, n := uvarint(t, body)
		body = body[n:]
		field, wire := key>>3, key&7
		if wire != 2 {
			t.Fatalf("sample: unexpected wire type %d", wire)
		}
		l, n := uvarint(t, body)
		body = body[n:]
		if field == 2 {
			v, _ := uvarint(t, body[:l])
			return int64(v)
		}
		body = body[l:]
	}
	t.Fatal("sample without values")
	return 0
}

func uvarint(t *testing.T, b []byte) (uint64, int) {
	t.Helper()
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	t.Fatal("truncated varint")
	return 0, 0
}
