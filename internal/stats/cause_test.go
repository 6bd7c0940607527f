package stats

import (
	"strings"
	"testing"
)

// TestCauseBucketMappingTotal pins the cause taxonomy: every cause maps
// to a valid bucket, names and slugs are distinct and non-empty, and
// folding a cause breakdown reproduces the bucket breakdown exactly —
// the invariant the SPU's single-charge path relies on.
func TestCauseBucketMappingTotal(t *testing.T) {
	seenSlug := map[string]bool{}
	for c := Cause(0); c < NumCauses; c++ {
		b := c.Bucket()
		if b < 0 || b >= NumBuckets {
			t.Fatalf("cause %v maps to invalid bucket %d", c, b)
		}
		if c.String() == "" || strings.HasPrefix(c.String(), "cause(") {
			t.Fatalf("cause %d has no name", int(c))
		}
		if s := c.Slug(); s == "" || seenSlug[s] {
			t.Fatalf("cause %v has empty or duplicate slug %q", c, s)
		} else {
			seenSlug[s] = true
		}
	}

	var cb CauseBreakdown
	for c := Cause(0); c < NumCauses; c++ {
		cb[c] = int64(100 + c)
	}
	var want Breakdown
	for c := Cause(0); c < NumCauses; c++ {
		want[c.Bucket()] += cb[c]
	}
	if got := cb.Buckets(); got != want {
		t.Fatalf("Buckets() = %v, want %v", got, want)
	}
	if cb.Total() != want.Total() {
		t.Fatalf("cause total %d != bucket total %d", cb.Total(), want.Total())
	}
}

// TestBreakdownPercentZeroTotal guards the empty-run rendering path: an
// all-zero breakdown must report 0%, never NaN, for every bucket and
// for StallPct.
func TestBreakdownPercentZeroTotal(t *testing.T) {
	var b Breakdown
	for k := Bucket(0); k < NumBuckets; k++ {
		if got := b.Percent(k); got != 0 {
			t.Fatalf("Percent(%v) on zero total = %v, want 0", k, got)
		}
	}
	if got := b.StallPct(); got != 0 {
		t.Fatalf("StallPct on zero total = %v, want 0", got)
	}
}

// TestZeroCycleTableRendering renders a breakdown table for a zero-cycle
// run end to end: the formatted cells must contain "0.0%", no NaN.
func TestZeroCycleTableRendering(t *testing.T) {
	var bd Breakdown
	tbl := Table{Title: "empty run", Headers: []string{"bucket", "pct"}}
	for k := Bucket(0); k < NumBuckets; k++ {
		tbl.AddRow(k.String(), Pct(bd.Percent(k)))
	}
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	if strings.Contains(out, "NaN") {
		t.Fatalf("zero-cycle table rendered NaN:\n%s", out)
	}
	if !strings.Contains(out, "0.0%") {
		t.Fatalf("zero-cycle table missing 0.0%% cells:\n%s", out)
	}
}

// TestStallPct pins the stall percentage definition: the MemStall,
// LSStall and LSEStall buckets over the total.
func TestStallPct(t *testing.T) {
	var b Breakdown
	b[Working] = 50
	b[MemStall] = 20
	b[LSStall] = 10
	b[LSEStall] = 10
	b[Prefetch] = 10
	if got := b.StallPct(); got != 40 {
		t.Fatalf("StallPct = %v, want 40", got)
	}
}
