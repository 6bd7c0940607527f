package stats

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/snap"
)

// shapedProgram returns a program of len(lens) templates whose code
// blocks have the given lengths.
func shapedProgram(lens ...[program.NumBlocks]int) *program.Program {
	p := &program.Program{}
	for _, l := range lens {
		t := &program.Template{}
		for b, n := range l {
			t.Blocks[b] = make([]isa.Instruction, n)
		}
		p.Templates = append(p.Templates, t)
	}
	return p
}

// TestProfileSamplesDeterministic: samples aggregate per location and
// come back in (template, block, pc) order regardless of charge order —
// the property the pprof encoder's byte-determinism rests on — and an
// empty block takes no row.
func TestProfileSamplesDeterministic(t *testing.T) {
	p := new(Profile)
	p.Shape(shapedProgram([program.NumBlocks]int{0, 2, 0, 4}, [program.NumBlocks]int{1, 0, 0, 1}))
	l0 := Loc{Template: 0, Block: 3, PC: 3}
	l1 := Loc{Template: 1, Block: 0, PC: 0}
	l2 := Loc{Template: 1, Block: 3, PC: 0}
	p.Add(p.Row(1, 0), CauseIssue, 4)
	p.Add(p.Row(0, 3)+3, CauseBlockingRead, 7)
	p.Add(p.Row(0, 3)+3, CauseIssue, 1)
	p.Add(0, CauseIdle, 9)
	p.Add(p.Row(1, 3), CauseBubble, 2)

	s := p.Samples()
	if len(s) != 4 {
		t.Fatalf("got %d samples, want 4", len(s))
	}
	if s[0].Loc != IdleLoc || s[1].Loc != l0 || s[2].Loc != l1 || s[3].Loc != l2 {
		t.Fatalf("samples out of order: %+v", s)
	}
	if s[1].Total != 8 || s[1].Causes[CauseBlockingRead] != 7 || s[1].Causes[CauseIssue] != 1 {
		t.Fatalf("aggregation wrong: %+v", s[1])
	}
	if p.Total() != 23 || p.Len() != 5 {
		t.Fatalf("Total = %d, Len = %d, want 23 and 5", p.Total(), p.Len())
	}
	if got := p.Causes(); got[CauseIssue] != 5 || got[CauseIdle] != 9 || got[CauseBubble] != 2 {
		t.Fatalf("Causes fold wrong: %v", got)
	}
}

// TestProfileEqualAndReset: Equal compares samples; Shape, which a
// machine's Reset calls, empties the store in place for the next
// program, larger or smaller.
func TestProfileEqualAndReset(t *testing.T) {
	prog := shapedProgram([program.NumBlocks]int{0, 3, 2, 1})
	a, b := new(Profile), new(Profile)
	a.Shape(prog)
	b.Shape(prog)
	a.Add(a.Row(0, 2)+1, CauseLSWait, 3)
	if a.Equal(b) {
		t.Fatal("distinct profiles compared equal")
	}
	b.Add(b.Row(0, 2)+1, CauseLSWait, 3)
	if !a.Equal(b) {
		t.Fatal("identical profiles compared unequal")
	}
	b.Add(b.Row(0, 2)+1, CauseIssue, 1)
	if a.Equal(b) {
		t.Fatal("profiles with different causes compared equal")
	}
	for _, next := range []*program.Program{shapedProgram([program.NumBlocks]int{1}), shapedProgram([program.NumBlocks]int{9, 9, 9, 9}), prog} {
		b.Shape(next)
		if b.Len() != 0 || b.Total() != 0 {
			t.Fatal("Shape left samples behind")
		}
		b.Add(b.Rows()-1, CauseIssue, 1)
	}
}

// TestProfileWalkRoundTrip: a snapshot of a profile restores into a
// profile shaped for the same program with the same samples, and a read
// refuses a location its program does not have.
func TestProfileWalkRoundTrip(t *testing.T) {
	prog := shapedProgram([program.NumBlocks]int{2, 0, 1, 3}, [program.NumBlocks]int{0, 0, 0, 2})
	p := new(Profile)
	p.Shape(prog)
	p.Add(0, CauseIdle, 5)
	p.Add(p.Row(1, 3)+1, CauseIssue, 2)
	p.Add(p.Row(0, 0)+1, CauseDMAWait, 7)
	enc := snap.NewEncoder()
	p.Walk(enc)

	q := new(Profile)
	q.Shape(prog)
	q.Add(p.Row(0, 3), CauseIssue, 1) // overwritten by the read
	dec := snap.NewDecoder(enc.Payload())
	if q.Walk(dec); dec.ExpectEOF() != nil || !q.Equal(p) {
		t.Fatalf("round trip: err %v, samples %+v, want %+v", dec.ExpectEOF(), q.Samples(), p.Samples())
	}

	small := new(Profile)
	small.Shape(shapedProgram([program.NumBlocks]int{2, 0, 1, 3}))
	dec = snap.NewDecoder(enc.Payload())
	if small.Walk(dec); dec.Err() == nil {
		t.Fatal("a read accepted a sample of a template its program does not have")
	}
}
