package harness

import (
	"reflect"
	"testing"
)

// TestExperimentsBurstDifferential reruns paper-figure experiments with
// the SPU burst fast path disabled (Context.SingleStep) and requires
// byte-identical outcomes: every metric and every rendered table cell.
// The burst path may only change wall-clock time, never a reported
// number. The speedup figures' runs are observed on both contexts, and
// each observed run's profile must equal its single-step twin's, label
// for label: the kernel's run and loop steps charge the
// profile in bulk, the reference cycle one cycle at a time.
func TestExperimentsBurstDifferential(t *testing.T) {
	ids := []string{
		"fig5a", "fig5b", "table5", "fig6", "fig7", "fig8", "fig9", "lat1",
		"ablation-dmalat", "ablation-writeback",
	}
	profiled := map[string]bool{"fig6": true, "fig7": true, "fig8": true, "lat1": true}
	opt := Options{Quick: true}
	for _, id := range ids {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		fastCtx := NewContext(opt)
		slowCtx := NewContext(opt)
		slowCtx.SingleStep = true
		if profiled[id] {
			fastCtx.Observe(false, true)
			slowCtx.Observe(false, true)
		}
		fast, err := exp.Run(fastCtx)
		if err != nil {
			t.Fatalf("%s (burst): %v", id, err)
		}
		slow, err := exp.Run(slowCtx)
		if err != nil {
			t.Fatalf("%s (single-step): %v", id, err)
		}
		if !reflect.DeepEqual(fast.Metrics, slow.Metrics) {
			t.Errorf("%s: metrics diverge\nburst:       %v\nsingle-step: %v", id, fast.Metrics, slow.Metrics)
		}
		if !reflect.DeepEqual(fast.Tables, slow.Tables) {
			t.Errorf("%s: tables diverge between burst and single-step", id)
		}
		if !profiled[id] {
			continue
		}
		fastRuns, slowRuns := fastCtx.Observed(), slowCtx.Observed()
		if len(fastRuns) == 0 || len(fastRuns) != len(slowRuns) {
			t.Fatalf("%s: %d profiled runs with the kernel, %d single-step", id, len(fastRuns), len(slowRuns))
		}
		for i, f := range fastRuns {
			s := slowRuns[i]
			if f.Label != s.Label {
				t.Fatalf("%s: profiled run %d is %q with the kernel, %q single-step", id, i, f.Label, s.Label)
			}
			if f.Prof.Len() == 0 || !f.Prof.Equal(s.Prof) {
				t.Errorf("%s: %s: the guest profile differs from its single-step twin", id, f.Label)
			}
		}
	}
}
