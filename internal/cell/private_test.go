package cell

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/dta"
	"repro/internal/isa"
	"repro/internal/program"
)

// The SPU runs a local-store access ahead of the engine clock, always
// inside a run step, only when its bytes are private: no live MFC
// command's range overlaps them, and they lie outside the frame region
// or in the running thread's own frame (spu.SPU.private). Correct
// programs never race a DMA or read another thread's frame, so no
// workload, fuzz seed or pin can tell an access that ran ahead from one
// that waited. Each guest below does exactly that, behind a register
// loop long enough for the other component to act while the SPU is
// still inside one kernel window, which then reaches the access in a
// run (raceRun), and must end the same with the kernel on and
// single-step. The DMA guests program their commands under a tag other
// than the thread's own, so the thread does not wait for them to drain.

const (
	raceBuf = 0x20000  // local-store buffer of the DMA guests, above the frames and code
	raceMem = 0x200000 // main-memory word they move
	raceTag = 99       // their commands' tag
)

// spin emits a register-only loop of n iterations (a few cycles each)
// on r20 and r21: cycles a kernel window steps over.
func spin(a *program.Asm, n int32) {
	a.Movi(program.R(20), 0).Movi(program.R(21), n)
	a.Label("spin")
	a.Addi(program.R(20), program.R(20), 1)
	a.Blt(program.R(20), program.R(21), "spin")
}

// raceRun emits the racing access, op r5 at [r2], inside a run the
// kernel steps (see spu's run): an ADDI the spin's closing branch cannot
// pair with, so that the spin is a loop step and the window goes on to
// the run; the access; and an ADDI reading r5, which a last ADDI
// follows so that the run holds it even when the last ADDI is the
// block's last instruction, which no run holds. r2 is set before the
// spin, so the run's live-ins are ready when the window reaches it.
func raceRun(a *program.Asm, op func(rd, ra program.Reg, imm int32) *program.Asm) {
	a.Addi(program.R(8), program.R(8), 1)
	op(program.R(5), program.R(2), 0)
	a.Addi(program.R(6), program.R(5), 1)
	a.Addi(program.R(7), program.R(6), 1)
}

// raceOutcome is how a run ended: its result and the main-memory word
// at raceMem, or its error text.
type raceOutcome struct {
	res *Result
	mem int64
	err string
}

// raceRuns runs p on spes SPEs single-step and with the kernel on,
// requires the same outcome — error text (which names the cycle), or end
// cycle, tokens, the word at raceMem and SPU, MFC and LSE statistics —
// and returns the single-step one.
func raceRuns(t *testing.T, spes int, p *program.Program) raceOutcome {
	t.Helper()
	var out [2]raceOutcome
	for i, burstMax := range []int{1, 0} {
		cfg := smallConfig(spes)
		cfg.SPU.BurstMax = burstMax
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if out[i].res, err = m.Run(); err != nil {
			out[i].err = err.Error()
			continue
		}
		out[i].mem = m.MemReader().Read64(raceMem)
	}
	ref, got := out[0], out[1]
	if got.err != ref.err {
		t.Fatalf("kernel: err %q, single-step %q", got.err, ref.err)
	}
	if ref.err != "" {
		return ref
	}
	if got.res.Cycles != ref.res.Cycles || !reflect.DeepEqual(got.res.Tokens, ref.res.Tokens) || got.mem != ref.mem {
		t.Fatalf("kernel: %d cycles, tokens %v, memory %d; single-step %d cycles, tokens %v, memory %d",
			got.res.Cycles, got.res.Tokens, got.mem, ref.res.Cycles, ref.res.Tokens, ref.mem)
	}
	if !reflect.DeepEqual(got.res.SPUs, ref.res.SPUs) || !reflect.DeepEqual(got.res.MFCs, ref.res.MFCs) ||
		!reflect.DeepEqual(got.res.LSEs, ref.res.LSEs) {
		t.Fatalf("kernel statistics differ from single-step:\n got %+v %+v %+v\nwant %+v %+v %+v",
			got.res.SPUs, got.res.MFCs, got.res.LSEs, ref.res.SPUs, ref.res.MFCs, ref.res.LSEs)
	}
	return ref
}

// wantToken requires a completed run that posted exactly v.
func wantToken(t *testing.T, o raceOutcome, v int64) {
	t.Helper()
	if o.err != "" {
		t.Fatalf("single-step: %s", o.err)
	}
	if len(o.res.Tokens) != 1 || o.res.Tokens[0] != v {
		t.Fatalf("single-step tokens = %v, want [%d]", o.res.Tokens, v)
	}
}

func build(t *testing.T, b *program.Builder) *program.Program {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dmaPF programs one raceTag command of 8 bytes between raceBuf and the
// main-memory address in frame slot 0.
func dmaPF(pf *program.Asm, op isa.Op) {
	pf.Load(program.R(1), 0)
	pf.Movi(program.R(2), raceBuf).Mfclsa(program.R(2))
	pf.Mfcea(program.R(1))
	pf.Movi(program.R(3), 8).Mfcsz(program.R(3))
	pf.Movi(program.R(4), raceTag).Mfctag(program.R(4))
	pf.Emit(isa.Instruction{Op: op})
}

// (i) An LSRD of the buffer its own MFCGET fills, reached while the GET
// is still in flight at the start of the window and landed by the
// LSRD's cycle: it must wait for its cycle and read the data.
func TestLSWindowGetInFlight(t *testing.T) {
	b := program.NewBuilder("get-in-flight")
	root := b.Template("root")
	dmaPF(root.Block(program.PF), isa.MFCGET)
	ex := root.EX()
	ex.Movi(program.R(2), raceBuf)
	spin(ex, 200)
	raceRun(ex, ex.Lsrd8)
	root.PS().StoreMailbox(program.R(5), program.R(9), 0).Ffree().Stop()
	b.Entry(root, raceMem)
	b.Segment(raceMem, binary.LittleEndian.AppendUint64(nil, 4242))
	wantToken(t, raceRuns(t, 1, build(t, b)), 4242)
}

// (ii) An LSWR into the buffer of a queued MFCPUT that launches before
// the LSWR's cycle: the PUT must stream what the buffer held at its
// launch (zero), not the LSWR's value.
func TestLSWindowPutQueued(t *testing.T) {
	b := program.NewBuilder("put-queued")
	root := b.Template("root")
	dmaPF(root.Block(program.PF), isa.MFCPUT)
	ex := root.EX()
	ex.Movi(program.R(5), 22)
	ex.Movi(program.R(2), raceBuf)
	spin(ex, 50)
	raceRun(ex, ex.Lswr8)
	root.PS().StoreMailbox(program.R(5), program.R(9), 0).Ffree().Stop()
	b.Entry(root, raceMem)
	b.Segment(raceMem, binary.LittleEndian.AppendUint64(nil, 5555))
	ref := raceRuns(t, 1, build(t, b))
	wantToken(t, ref, 22)
	if ref.mem != 0 {
		t.Fatalf("single-step memory word = %d, want the buffer's 0 at the PUT's launch", ref.mem)
	}
}

// (iii) An LSRD of another thread's frame while a STORE from the other
// SPE fills it. root (SPE 0) allocates reader and target on SPE 1 and
// writer on SPE 0, where it runs once root stops; the DSE places each
// FALLOC on the SPE with the most free frames, ties in turn. The reader
// spins, and its LSRD must wait for its cycle and read the stored value.
func TestLSWindowRemoteFrameStore(t *testing.T) {
	prog := func(frameBase int32) *program.Program {
		b := program.NewBuilder("frame-store")
		root := b.Template("root")
		reader := b.Template("reader")
		writer := b.Template("writer")
		target := b.Template("target")
		ex := root.EX()
		ex.Falloc(program.R(1), reader, 1) // SPE 1
		ex.Falloc(program.R(2), writer, 1) // SPE 0
		ex.Falloc(program.R(3), target, 2) // SPE 1
		root.PS().Store(program.R(3), program.R(1), 0).Store(program.R(3), program.R(2), 0).Ffree().Stop()

		reader.PL().Load(program.R(1), 0)
		ex = reader.EX()
		ex.Andi(program.R(2), program.R(1), 0xFFFFFF) // the target's frame slot (dta.MakeFP)
		ex.Muli(program.R(2), program.R(2), dta.FrameBytes)
		ex.Movi(program.R(3), frameBase)
		ex.Add(program.R(2), program.R(2), program.R(3))
		spin(ex, 300)
		raceRun(ex, ex.Lsrd8)
		reader.PS().Store(program.R(5), program.R(1), 1).Ffree().Stop()

		writer.PL().Load(program.R(1), 0)
		spin(writer.EX(), 20)
		writer.PS().Movi(program.R(2), 77).Store(program.R(2), program.R(1), 0).Ffree().Stop()

		target.PL().Load(program.R(1), 1)
		target.PS().StoreMailbox(program.R(1), program.R(9), 0).Ffree().Stop()
		b.Entry(root)
		return build(t, b)
	}
	// The frame region's base depends on the code's length, which the
	// base's own value does not change.
	layout, err := planLayout(smallConfig(2), prog(0))
	if err != nil {
		t.Fatal(err)
	}
	wantToken(t, raceRuns(t, 2, prog(int32(layout.FrameBase))), 77)
}

// (iv) A loop of LSRD8s striding up to the buffer of its own MFCGET,
// stepped in place while the GET is in flight: the iterations before
// the buffer read private bytes, but the one that reaches it must leave
// the step, wait for its cycle, after the GET landed, and read the data.
func TestLSWindowLoopReachesGet(t *testing.T) {
	const n = 64 // iterations
	b := program.NewBuilder("loop-reaches-get")
	root := b.Template("root")
	dmaPF(root.Block(program.PF), isa.MFCGET)
	ex := root.EX()
	ex.Movi(program.R(2), raceBuf-8*(n-1)).Movi(program.R(3), raceBuf)
	ex.Label("read")
	ex.Lsrd8(program.R(5), program.R(2), 0)
	ex.Addi(program.R(2), program.R(2), 8)
	ex.Bge(program.R(3), program.R(2), "read")
	ex.Addi(program.R(6), program.R(5), 1)
	root.PS().StoreMailbox(program.R(5), program.R(9), 0).Ffree().Stop()
	b.Entry(root, raceMem)
	b.Segment(raceMem, binary.LittleEndian.AppendUint64(nil, 4242))
	wantToken(t, raceRuns(t, 1, build(t, b)), 4242)
}
