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
	p.Shape(shapedProgram([program.NumBlocks]int{0, 2, 0, 4}, [program.NumBlocks]int{1, 0, 0, 1}), 2)
	l0 := Loc{Template: 0, Block: 3, PC: 3}
	l1 := Loc{Template: 1, Block: 0, PC: 0}
	l2 := Loc{Template: 1, Block: 3, PC: 0}
	p.Add(0, p.Row(1, 0), CauseIssue, 4)
	p.Add(1, p.Row(0, 3)+3, CauseBlockingRead, 7)
	p.Add(0, p.Row(0, 3)+3, CauseIssue, 1)
	p.Add(1, 0, CauseIdle, 9)
	p.Add(0, p.Row(1, 3), CauseBubble, 2)

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
	a.Shape(prog, 1)
	b.Shape(prog, 1)
	a.Add(0, a.Row(0, 2)+1, CauseLSWait, 3)
	if a.Equal(b) {
		t.Fatal("distinct profiles compared equal")
	}
	b.Add(0, b.Row(0, 2)+1, CauseLSWait, 3)
	if !a.Equal(b) {
		t.Fatal("identical profiles compared unequal")
	}
	b.Add(0, b.Row(0, 2)+1, CauseIssue, 1)
	if a.Equal(b) {
		t.Fatal("profiles with different causes compared equal")
	}
	for i, next := range []*program.Program{shapedProgram([program.NumBlocks]int{1}), shapedProgram([program.NumBlocks]int{9, 9, 9, 9}), prog} {
		b.Shape(next, 3-i)
		var s SPU
		for spe := range 3 - i {
			if b.Fold(spe, next, &s); s != (SPU{}) {
				t.Fatalf("Shape left SPE %d counts behind: %+v", spe, s)
			}
		}
		if b.Len() != 0 || b.Total() != 0 {
			t.Fatal("Shape left samples behind")
		}
		b.Add(2-i, b.Rows()-1, CauseIssue, 1)
		b.AddInstr(2-i, b.Rows()-1, 1)
	}
}

// TestProfileWalkRoundTrip: a snapshot of a profile restores into a
// profile shaped for the same program and SPE count with the same
// samples, SPE totals and instruction column, and a read refuses a
// location its program does not have, and SPE totals or an instruction
// column of another shape.
func TestProfileWalkRoundTrip(t *testing.T) {
	prog := shapedProgram([program.NumBlocks]int{2, 0, 1, 3}, [program.NumBlocks]int{0, 0, 0, 2})
	p := new(Profile)
	p.Shape(prog, 2)
	p.Add(0, 0, CauseIdle, 5)
	p.Add(1, p.Row(1, 3)+1, CauseIssue, 2)
	p.Add(0, p.Row(0, 0)+1, CauseDMAWait, 7)
	p.AddInstr(1, p.Row(1, 3)+1, 2)
	enc := snap.NewEncoder()
	p.Walk(enc)

	q := new(Profile)
	q.Shape(prog, 2)
	q.Add(1, p.Row(0, 3), CauseIssue, 1) // overwritten by the read
	q.AddInstr(0, p.Row(0, 3), 1)
	dec := snap.NewDecoder(enc.Payload())
	if q.Walk(dec); dec.ExpectEOF() != nil || !q.Equal(p) {
		t.Fatalf("round trip: err %v, samples %+v, want %+v", dec.ExpectEOF(), q.Samples(), p.Samples())
	}
	for spe := range 2 {
		var got, want SPU
		q.Fold(spe, prog, &got)
		p.Fold(spe, prog, &want)
		if got != want {
			t.Fatalf("round trip: SPE %d folds %+v, want %+v", spe, got, want)
		}
	}

	for _, c := range []struct {
		what string
		prog *program.Program
		spes int
	}{
		{"a sample of a template its program does not have", shapedProgram([program.NumBlocks]int{2, 0, 1, 3}), 2},
		{"the totals of another SPE count", prog, 3},
		{"an instruction column of another shape", shapedProgram([program.NumBlocks]int{2, 0, 1, 3}, [program.NumBlocks]int{0, 0, 0, 3}), 2},
	} {
		r := new(Profile)
		r.Shape(c.prog, c.spes)
		dec = snap.NewDecoder(enc.Payload())
		if r.Walk(dec); dec.Err() == nil {
			t.Errorf("a read accepted %s", c.what)
		}
	}
}

// TestProfileFold: each SPE folds its own cycles and instructions from
// a profile two SPEs charged — causes, the buckets they fold into, the
// instruction mix by each opcode's class, issued slots — leaves the
// fields the SPU counts itself alone, and a second fold gives the same
// counts.
func TestProfileFold(t *testing.T) {
	// One instruction of every InstrCounts class, in the PL block, and
	// a second template with the rest.
	prog := &program.Program{Templates: []*program.Template{{}, {}}}
	prog.Templates[0].Blocks[program.PL] = []isa.Instruction{
		{Op: isa.LOAD}, {Op: isa.STOREX}, {Op: isa.READ8}, {Op: isa.WRITE}, {Op: isa.LSWRX8},
	}
	prog.Templates[1].Blocks[program.PF] = []isa.Instruction{{Op: isa.MFCGET}, {Op: isa.ADDI}}
	prog.Templates[1].Blocks[program.PS] = []isa.Instruction{{Op: isa.STOP}}
	p := new(Profile)
	p.Shape(prog, 2)
	pl, pf, ps := p.Row(0, program.PL), p.Row(1, program.PF), p.Row(1, program.PS)
	for i := range 5 {
		p.AddInstr(0, pl+i, int64(i+1)) // LOAD 1, STORE 2, READ 3, WRITE 4, LSDir 5
	}
	p.AddInstr(0, pf, 6)
	p.AddInstr(0, pf+1, 7)
	p.AddInstr(0, ps, 8)
	p.AddInstr(1, pl+2, 100)
	p.Add(0, pl, CauseIssue, 10)
	p.Add(0, pl+2, CauseBlockingRead, 7)
	p.Add(0, pf, CauseDMAProgram, 3)
	p.Add(1, ps, CauseFallocWait, 5)
	p.Add(1, 0, CauseIdle, 2)

	for range 2 {
		s := SPU{Cycles: 50, Threads: 1, PFBlocks: 2}
		p.Fold(0, prog, &s)
		want := SPU{Cycles: 50, Threads: 1, PFBlocks: 2, IssuedSlots: 36,
			Instr: InstrCounts{Total: 36, Load: 1, Store: 2, Read: 3, Write: 4, LSDir: 5, DTA: 8, MFC: 6}}
		want.Causes[CauseIssue], want.Causes[CauseBlockingRead], want.Causes[CauseDMAProgram] = 10, 7, 3
		want.Breakdown[Working], want.Breakdown[MemStall], want.Breakdown[Prefetch] = 10, 7, 3
		if s != want {
			t.Fatalf("SPE 0 folds\n%+v, want\n%+v", s, want)
		}
	}
	var s SPU
	p.Fold(1, prog, &s)
	want := SPU{IssuedSlots: 100, Instr: InstrCounts{Total: 100, Read: 100}}
	want.Causes[CauseFallocWait], want.Causes[CauseIdle] = 5, 2
	want.Breakdown[LSEStall], want.Breakdown[Idle] = 5, 2
	if s != want {
		t.Fatalf("SPE 1 folds\n%+v, want\n%+v", s, want)
	}
}
