package synth

import "testing"

// TestObserveScenario checks the fresh-machine observing entry point:
// each variant carries a guest profile, with the timeline asked for a
// timeline too; each profile equals the one a call without the timeline
// returns (so recording alongside does not perturb it), and each
// profile's cause totals agree with its bucket fold.
func TestObserveScenario(t *testing.T) {
	sc := FromSeed(CorpusSeeds()[0])
	both, err := ObserveScenario(sc, CheckOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	profOnly, err := ObserveScenario(sc, CheckOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != 2 || len(profOnly) != 2 {
		t.Fatalf("observed %d and %d runs, want the orig/pf pair", len(both), len(profOnly))
	}
	for i, r := range both {
		if r.Rec == nil || len(r.Rec.SPUSpans()) == 0 || r.Prof == nil || r.Prog == nil {
			t.Fatalf("%s: want a timeline, a profile and a program (rec=%v prof=%v prog=%v)",
				r.Label, r.Rec != nil, r.Prof != nil, r.Prog != nil)
		}
		if profOnly[i].Rec != nil {
			t.Fatalf("%s: a profile-only run carries a timeline", profOnly[i].Label)
		}
		if !r.Prof.Equal(profOnly[i].Prof) {
			t.Errorf("%s: profile differs with the timeline recorded alongside", r.Label)
		}
		if r.Prof.Len() == 0 {
			t.Errorf("%s: no samples", r.Label)
		}
		if causes := r.Prof.Causes(); causes.Total() != r.Prof.Total() {
			t.Errorf("%s: cause total %d != profile total %d", r.Label, causes.Total(), r.Prof.Total())
		}
	}
	if both[0].Prof.Equal(both[1].Prof) {
		t.Error("orig and pf profiles identical — transform had no effect on attribution")
	}
}
