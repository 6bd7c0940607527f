package spu_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Edge cases of the burst kernel, each run at several window sizes and
// held to the single-step reference (BurstMax 1): same end cycle, same
// per-SPU statistics, same guest profile, and the same final r1..r4
// (posted as mailbox tokens). The small windows put the limit inside
// the bubble, stall or issue group under test; 0 is the default window.
// The kernel's run and loop steps charge each instruction's issue cycles
// and stalls to the profile in bulk, the reference one cycle at a time.
// Where a row pins the SPU's engine ticks, it also pins how far the
// windows reach: a window that ends early costs a tick and changes no
// result.

var edgeWindows = []int{2, 3, 7, 0}

type kernelEdge struct {
	name    string
	cfg     func(*cell.Config)
	arg     int64              // frame slot 0 of the root thread
	pf      func(*program.Asm) // hand-written PF block fetching 64 bytes, if any
	pl      func(*program.Asm) // defaults to a lone LOAD r9
	ex      func(*program.Asm)
	tokens  []int64 // the expected r1..r4, if set
	wantErr string  // single-step must fail with this, and every window size with the same error
	// entry, if set, is the EX pc of a run entry, and steps whether the
	// default window must step that run at least once or never.
	entry int
	steps bool
	ticks int64 // the SPU's engine ticks at the default window, if set
}

var kernelEdges = []kernelEdge{
	{
		name: "branch bubble cut by the window limit",
		cfg:  func(c *cell.Config) { c.SPU.BranchPenalty = 5 },
		ex:   countedLoop,
	},
	{
		name: "DIV stall crossing the window limit",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 1000)
			ex.Movi(program.R(3), 7)
			ex.Div(program.R(1), program.R(2), program.R(3))
			ex.Addi(program.R(4), program.R(1), 1) // waits LatDIV = 20
			ex.Rem(program.R(2), program.R(4), program.R(3))
			ex.Add(program.R(3), program.R(2), program.R(4))
		},
	},
	{
		name: "BranchPenalty 0",
		cfg:  func(c *cell.Config) { c.SPU.BranchPenalty = 0 },
		ex:   countedLoop,
	},
	{
		name: "taken branch beside a local-store op",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 6)
			ex.Lswr(program.R(2), program.RegPFB, 0x9000)
			ex.Label("top")
			ex.Lsrd(program.R(3), program.RegPFB, 0x9000) // the branch target
			ex.Addi(program.R(1), program.R(1), 1)
			ex.Blt(program.R(1), program.R(2), "top") // taken: must not pair with the LSRD it lands on
			ex.Lsrd(program.R(4), program.RegPFB, 0x9000)
			ex.Add(program.R(2), program.R(3), program.R(4))
		},
	},
	{
		name: "PF block waits in bulk but issues on the engine clock",
		pf: func(pf *program.Asm) {
			pf.Load(program.R(1), 0)
			pf.Addi(program.R(5), program.R(1), 0) // waits on the frame load
			pf.Mfcea(program.R(5))                 // channel-busy bubbles
			pf.Mov(program.R(2), program.RegPFB)
			pf.Addi(program.R(6), program.R(2), 0)
			pf.Mfclsa(program.R(6))
			pf.Movi(program.R(3), 64)
			pf.Mfcsz(program.R(3))
			pf.Mfctag(program.RegTag)
			pf.Mfcget()
		},
		arg: 0x200000,
		ex: func(ex *program.Asm) {
			ex.Lsrd(program.R(1), program.RegPFB, 0)
			ex.Addi(program.R(2), program.R(1), 1)
		},
	},
	{
		// The run entered at the MUL (after a one-cycle stall on r6) has
		// the local-store result r3 as a live-in, read first in the ADD's
		// sources; the ADD then waits LatMUL on r5, and r3 becomes ready
		// inside that wait. The cycles before it are LSWait, the rest
		// DepStall. Mutant: a live-in's offset taken as its reader's
		// issue offset instead of the first cycle the reader is
		// considered; the run step then takes the run from the MUL and
		// charges the whole wait as DepStall.
		name: "local-store live-in ready inside a run's internal stall",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 7)
			ex.Lswr8(program.R(2), program.RegPFB, 0x9000)
			ex.Lsrd8(program.R(3), program.RegPFB, 0x9000)
			ex.Movi(program.R(6), 3) // joins the LSRD's cycle
			ex.Mul(program.R(5), program.R(6), program.R(6))
			ex.Add(program.R(1), program.R(3), program.R(5))
			ex.Addi(program.R(4), program.R(1), 1)
			ex.Addi(program.R(2), program.R(4), 1)
		},
		tokens: []int64{16, 18, 7, 17},
	},
	{
		// The run entered at the second LSRD8 (the first ends the run
		// before it, which writes its address register r7) has the first
		// LSRD8's r3 as a live-in, read first by the ADD, which waits on
		// the second's r4 until offset 6. r3 is late, but ready by then
		// and of the class the ADD waits on, so the run steps and the
		// wait is LSWait throughout, as single-step charges it.
		name: "late local-store live-in read beside a local-store wait",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 7)
			ex.Lswr8(program.R(2), program.RegPFB, 0x9000)
			ex.Lswr8(program.R(2), program.RegPFB, 0x9008)
			ex.Addi(program.R(7), program.RegPFB, 0x9008)
			ex.Lsrd8(program.R(3), program.RegPFB, 0x9000)
			ex.Lsrd8(program.R(4), program.R(7), 0) // the entry
			ex.Add(program.R(1), program.R(3), program.R(4))
			ex.Addi(program.R(2), program.R(1), 1)
			ex.Addi(program.R(3), program.R(2), 1)
		},
		tokens: []int64{14, 15, 16, 7},
		entry:  5,
		steps:  true,
	},
	{
		// As above, but r3 comes from a MUL: single-step charges the
		// ADD's first cycles to DepStall, then LSWait, so the run must
		// not step. Mutant: a late live-in accepted whatever its
		// producer class; the step charges the whole wait as LSWait.
		name: "late ALU live-in read beside a local-store wait",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 7)
			ex.Lswr8(program.R(2), program.RegPFB, 0x9008)
			ex.Mul(program.R(3), program.R(2), program.R(2))
			ex.Addi(program.R(7), program.RegPFB, 0x9008)
			ex.Lsrd8(program.R(4), program.R(7), 0) // the entry
			ex.Add(program.R(1), program.R(3), program.R(4))
			ex.Addi(program.R(2), program.R(1), 1)
			ex.Addi(program.R(3), program.R(2), 1)
		},
		tokens: []int64{56, 57, 58, 7},
		entry:  4,
	},
	{
		// The ADD reads the DIV's r3, a live-in of the run entered at
		// the LSRD8, first and waits on the run's r5 until offset 2; r3
		// is of that class but ready long after, so the run must not
		// step. Mutant: a late live-in accepted past its reader's issue;
		// the step issues the ADD before r3 is ready.
		name: "live-in of the reader's wait class later than its issue",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 7)
			ex.Addi(program.R(7), program.RegPFB, 0x9000)
			ex.Div(program.R(3), program.R(2), program.R(2))
			ex.Lsrd8(program.R(4), program.R(7), 0) // the entry
			ex.Addi(program.R(5), program.R(2), 1)
			ex.Add(program.R(1), program.R(3), program.R(5))
			ex.Addi(program.R(2), program.R(1), 1)
			ex.Addi(program.R(3), program.R(2), 1)
		},
		tokens: []int64{9, 10, 11, 0},
		entry:  3,
	},
	{
		name: "ALU write to RegZero",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 5)
			ex.Addi(program.R(0), program.R(2), 9) // discarded, no scoreboard entry
			ex.Add(program.R(1), program.R(0), program.R(2))
			ex.Mul(program.R(0), program.R(2), program.R(2))
			ex.Add(program.R(3), program.R(0), program.R(1)) // must not wait LatMUL
		},
	},
	// The pairing rule (SPU.alone): a window issues a register-only
	// instruction outside a run step only when its cycle issues it alone.
	// Each EX below opens with a taken JMP, which issues alone, so that
	// the window reaches the instruction under test outside a run.
	{
		name: "compute pair before the block's last instruction",
		ex: func(ex *program.Asm) {
			ex.Jmp("a")
			ex.Label("a")
			ex.Addi(program.R(1), program.R(1), 1)
			ex.Muli(program.R(2), program.R(1), 3) // same slot: the ADDI issues alone
			ex.Addi(program.R(3), program.R(2), 1) // the block's last: the window ends before it
		},
		ticks: 11,
	},
	{
		name: "LSRD then a reader of its result",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 7)
			ex.Lswr8(program.R(2), program.RegPFB, 0x9000)
			ex.Jmp("a")
			ex.Label("a")
			ex.Lsrd(program.R(1), program.RegPFB, 0x9000)
			ex.Add(program.R(3), program.R(1), program.R(1)) // waits on the LSRD
			ex.Addi(program.R(4), program.R(3), 1)
			ex.Addi(program.R(2), program.R(4), 1)
		},
		ticks: 11,
	},
	{
		name: "ADDI then a WRITE to its result",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(5), 0x100000)
			ex.Movi(program.R(2), 42)
			ex.Jmp("a")
			ex.Label("a")
			ex.Addi(program.R(4), program.R(5), 64) // issues alone: the WRITE waits on r4
			ex.Write(program.R(2), program.R(4), 0)
			ex.Addi(program.R(1), program.R(4), 1)
		},
		ticks: 11,
	},
	{
		name: "ADDI then an independent WRITE",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(5), 0x100000)
			ex.Movi(program.R(2), 42)
			ex.Jmp("a")
			ex.Label("a")
			ex.Addi(program.R(4), program.R(2), 1) // pairs with the WRITE, on the engine clock
			ex.Write(program.R(2), program.R(5), 0)
			ex.Addi(program.R(1), program.R(4), 1)
		},
		ticks: 12,
	},
	{
		name: "ADDI then a WRITE waiting on an older result",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(5), 0x100000)
			ex.Movi(program.R(2), 42)
			ex.Mul(program.R(4), program.R(5), program.R(2))
			ex.Jmp("a")
			ex.Label("a")
			ex.Addi(program.R(1), program.R(2), 1) // issues alone: the WRITE waits on the MUL
			ex.Write(program.R(2), program.R(4), 0)
			ex.Addi(program.R(3), program.R(1), 1)
		},
		ticks: 11,
	},
	{
		name: "LSRD then LSWR",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 7)
			ex.Lswr(program.R(2), program.RegPFB, 0x9000)
			ex.Jmp("a")
			ex.Label("a")
			ex.Lsrd(program.R(1), program.RegPFB, 0x9000)
			ex.Lswr(program.R(1), program.RegPFB, 0x9008) // same slot as the LSRD
			ex.Addi(program.R(3), program.R(1), 1)
			ex.Addi(program.R(4), program.R(3), 1)
		},
		ticks: 11,
	},
	{
		name: "RegZero write then a WRITE reading RegZero",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 42)
			ex.Jmp("a")
			ex.Label("a")
			ex.Add(program.R(0), program.R(2), program.R(2)) // writes nothing: the WRITE joins its cycle
			ex.Write(program.R(2), program.R(0), 0x100000)
			ex.Addi(program.R(1), program.R(2), 1)
		},
		ticks: 12,
	},
	{
		name: "not-taken branch then a WRITE",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(5), 0x100000)
			ex.Movi(program.R(2), 42)
			ex.Jmp("a")
			ex.Label("a")
			ex.Beq(program.R(2), program.R(0), "a") // not taken: the WRITE joins its cycle
			ex.Write(program.R(2), program.R(5), 0)
			ex.Addi(program.R(1), program.R(2), 1)
		},
		ticks: 12,
	},
	{
		// The spin's closing branch could pair with the LSRD8 when not
		// taken, so the spin is no loop step, but each taken branch
		// issues alone and the spin stays in one window.
		name: "spin closed before a local-store op",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(21), 40)
			ex.Label("spin")
			ex.Addi(program.R(20), program.R(20), 1)
			ex.Blt(program.R(20), program.R(21), "spin")
			ex.Lsrd8(program.R(1), program.RegPFB, 0x9000)
			ex.Addi(program.R(2), program.R(1), 1)
			ex.Addi(program.R(3), program.R(20), 1)
		},
		ticks: 11,
	},
	{
		name: "LSRD + ALU dual issue",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 11)
			for i := int32(0); i < 6; i++ {
				ex.Lswr8(program.R(2), program.RegPFB, 0x9000+8*i)
				ex.Addi(program.R(2), program.R(2), 3)
			}
			for i := int32(0); i < 6; i++ {
				ex.Lsrd8(program.R(3), program.RegPFB, 0x9000+8*i)
				ex.Add(program.R(1), program.R(1), program.R(3)) // stalls on the LS latency
				ex.Lsrd(program.R(4), program.RegPFB, 0x9000+8*i)
				ex.Addi(program.R(2), program.R(2), 1) // joins the LSRD's cycle
			}
		},
	},
	{
		name: "extern second that cannot join: same slot",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(5), 0x100000)
			ex.Movi(program.R(2), 42)
			ex.Lswr(program.R(2), program.RegPFB, 0x9000)
			ex.Addi(program.R(3), program.R(2), 1)
			ex.Lsrd(program.R(1), program.RegPFB, 0x9000)
			ex.Write(program.R(2), program.R(5), 0) // memory slot is taken by the LSRD
			ex.Addi(program.R(4), program.R(1), 1)
		},
	},
	{
		name: "extern second that cannot join: reads the first's Rd",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(5), 0x100000)
			ex.Movi(program.R(2), 42)
			ex.Addi(program.R(3), program.R(2), 1)
			ex.Addi(program.R(4), program.R(5), 64)
			ex.Write(program.R(2), program.R(4), 0) // address produced the cycle before
			ex.Add(program.R(1), program.R(3), program.R(2))
		},
	},
	{
		name: "falling off a block end inside a window",
		pl: func(pl *program.Asm) {
			pl.Load(program.R(9), 0)
			pl.Movi(program.R(2), 3)
			pl.Load(program.R(3), 0)
			pl.Addi(program.R(1), program.R(2), 4) // PL's last: joins the LOAD, EX starts next cycle
		},
		arg: 7,
		ex: func(ex *program.Asm) {
			ex.Add(program.R(4), program.R(1), program.R(3))
			ex.Shli(program.R(2), program.R(4), 2)
		},
	},
	{
		name: "Li of 64-bit constants",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 1)
			ex.Li(program.R(1), 5<<32|7) // MOVHI + ORI, pre-executed
			ex.Li(program.R(3), -3<<32|9)
			ex.Li(program.R(4), 0x7fff_ffff_7fff_ffff)
			ex.Add(program.R(2), program.R(2), program.R(1))
		},
		tokens: []int64{5<<32 | 7, 5<<32 | 8, -3<<32 | 9, 0x7fff_ffff_7fff_ffff},
	},
	{
		name: "LSRD to a bad address",
		arg:  1 << 40, // far outside the local store
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 1)
			ex.Addi(program.R(2), program.R(2), 1)
			ex.Addi(program.R(3), program.R(2), 1)
			ex.Lsrd(program.R(1), program.R(9), 0) // every window stops before it (private)
			ex.Addi(program.R(4), program.R(1), 1)
		},
		wantErr: "ls:",
	},
	{
		name: "LOADX from a bad slot",
		pl: func(pl *program.Asm) {
			pl.Load(program.R(9), 0)
			pl.Movi(program.R(2), 1000) // far outside the frame
			pl.Addi(program.R(3), program.R(2), 1)
			pl.Addi(program.R(4), program.R(3), 1)
			pl.Loadx(program.R(1), program.R(2)) // every window stops before it
			pl.Addi(program.R(4), program.R(1), 1)
		},
		ex:      func(ex *program.Asm) { ex.Addi(program.R(1), program.R(1), 1) },
		wantErr: "frame load slot 1000",
	},
	{
		name: "zero-latency result forwarded into a local-store address",
		cfg:  func(c *cell.Config) { c.SPU.LatFX = 0 },
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 7)
			ex.Lswr8(program.R(2), program.RegPFB, 0x9000)
			ex.Addi(program.R(3), program.R(2), 1)
			ex.Addi(program.R(5), program.RegPFB, 0x9000)
			ex.Lsrd8(program.R(1), program.R(5), 0) // joins the ADDI that makes its address
			ex.Addi(program.R(4), program.R(1), 1)
		},
		tokens: []int64{7, 7, 8, 8},
	},
	{
		name: "zero-latency result forwarded into a bad address",
		cfg:  func(c *cell.Config) { c.SPU.LatFX = 0 },
		arg:  1 << 40, // far outside the local store
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 1)
			ex.Addi(program.R(2), program.R(2), 1)
			ex.Addi(program.R(5), program.R(9), 0)
			ex.Lsrd(program.R(1), program.R(5), 0) // joins the ADDI that makes its address
			ex.Addi(program.R(4), program.R(1), 1)
		},
		wantErr: "ls:",
	},
	{
		name: "local-store write whose end overflows int64",
		arg:  math.MaxInt64 - 1, // addr+4 wraps negative
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 1)
			ex.Addi(program.R(3), program.R(2), 1)
			ex.Lswr(program.R(2), program.R(9), 0)
			ex.Addi(program.R(4), program.R(3), 1)
		},
		wantErr: "ls: access",
	},
	{
		// The LSRD's address register is written inside the run, to an
		// address outside the store: the run ends before the LSRD, whose
		// access faults on the engine clock. Mutant: the LSRD joins the
		// run, whose step resolves its address from the entry registers
		// and reads bytes inside the store instead of faulting.
		name: "local-store address written inside a run",
		ex: func(ex *program.Asm) {
			ex.Addi(program.R(2), program.RegPFB, 0x9000)
			ex.Movi(program.R(3), 1)
			ex.Shli(program.R(3), program.R(3), 40)
			ex.Addi(program.R(1), program.R(1), 1)
			ex.Add(program.R(2), program.R(2), program.R(3))
			ex.Lsrd8(program.R(4), program.R(2), 0)
			ex.Addi(program.R(4), program.R(4), 1)
		},
		wantErr: "ls:",
	},
	{
		// The MUL's result is carried round the loop and read at offset
		// 0, LatMUL = 7 after its issue, but the next entry comes
		// last+1+BranchPenalty = 6 cycles after this one: the loop must
		// not be iterated in place.
		name: "loop-carried MUL result later than the back edge",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(1), 5)
			ex.Movi(program.R(2), 3)
			ex.Movi(program.R(3), 4)
			ex.Label("top")
			ex.Mul(program.R(1), program.R(1), program.R(2))
			ex.Subi(program.R(3), program.R(3), 1)
			ex.Bne(program.R(3), program.R(0), "top")
			ex.Addi(program.R(4), program.R(1), 1)
		},
		tokens: []int64{405, 3, 0, 406},
	},
	{
		// The guard leaves the loop after full iterations, so the MUL
		// result the exit reads at once is ready from the last iteration
		// entered, not from before the loop.
		name: "guarded loop left by its guard, result read at once",
		cfg:  func(c *cell.Config) { c.SPU.BranchPenalty = 0 },
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 3)
			ex.Movi(program.R(3), 4)
			ex.Label("head")
			ex.Beq(program.R(3), program.R(0), "done")
			ex.Mul(program.R(1), program.R(3), program.R(2))
			ex.Subi(program.R(3), program.R(3), 1)
			ex.Jmp("head")
			ex.Label("done")
			ex.Addi(program.R(4), program.R(1), 1)
		},
		tokens: []int64{3, 3, 0, 4},
	},
}

// countedLoop takes its back edge five times; the branch is followed by
// more compute, so it is not the block's last instruction and runs
// inside a window.
func countedLoop(ex *program.Asm) {
	ex.Movi(program.R(2), 6)
	ex.Label("top")
	ex.Addi(program.R(1), program.R(1), 1)
	ex.Blt(program.R(1), program.R(2), "top")
	ex.Addi(program.R(3), program.R(1), 1)
	ex.Addi(program.R(4), program.R(3), 1)
}

func (e kernelEdge) run(t *testing.T, burstMax int) (res *cell.Result, prof *stats.Profile, steps, ticks int64, err error) {
	t.Helper()
	b := program.NewBuilder("kernel-edge")
	root := b.Template("root")
	if e.pf != nil {
		e.pf(root.Block(program.PF))
	}
	if e.pl != nil {
		e.pl(root.PL())
	} else {
		root.PL().Load(program.R(9), 0)
	}
	e.ex(root.EX())
	ps := root.PS()
	for slot := 0; slot < 4; slot++ {
		ps.StoreMailbox(program.R(1+slot), program.R(99), slot)
	}
	ps.Ffree().Stop()
	b.ExpectTokens(4)
	b.Entry(root, e.arg)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if e.pf != nil {
		p.Templates[0].PrefetchBytes = 64
	}
	cfg := oneSPE()
	cfg.MaxCycles = 100_000
	if e.cfg != nil {
		e.cfg(&cfg)
	}
	cfg.SPU.BurstMax = burstMax
	m, err := cell.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(sim.Never); err != nil {
		return nil, m.Profile(), 0, 0, err
	}
	steps = m.SPEs()[0].SPU.RunSteps(0, program.EX, e.entry) // before Finish charges them
	for _, c := range m.ComponentTicks() {
		if c.Name == "spu0" {
			ticks = c.Ticks
		}
	}
	res, err = m.Finish()
	return res, m.Profile(), steps, ticks, err
}

// check runs e at every window size against the single-step reference:
// every reported number and the guest profile (the run steps' bulk
// charges against per-cycle ones) must agree.
func (e kernelEdge) check(t *testing.T) {
	t.Helper()
	ref, refProf, _, _, refErr := e.run(t, 1)
	if e.wantErr == "" && refErr != nil {
		t.Fatalf("single-step: %v", refErr)
	}
	if e.wantErr != "" && (refErr == nil || !strings.Contains(refErr.Error(), e.wantErr)) {
		t.Fatalf("single-step: err = %v, want %q", refErr, e.wantErr)
	}
	if e.tokens != nil && !reflect.DeepEqual(ref.Tokens, e.tokens) {
		t.Errorf("single-step: r1..r4 = %v, want %v", ref.Tokens, e.tokens)
	}
	for _, w := range edgeWindows {
		got, prof, steps, ticks, err := e.run(t, w)
		if e.wantErr != "" {
			// The fault names the cycle it happened in, so the texts agree
			// only if the window left the faulting cycle to the engine clock.
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("BurstMax %d: err = %v, single-step %v", w, err, refErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("BurstMax %d: %v", w, err)
		}
		if got.Cycles != ref.Cycles {
			t.Errorf("BurstMax %d: end cycle %d, single-step %d", w, got.Cycles, ref.Cycles)
		}
		if !reflect.DeepEqual(got.Tokens, ref.Tokens) {
			t.Errorf("BurstMax %d: r1..r4 = %v, single-step %v", w, got.Tokens, ref.Tokens)
		}
		if !reflect.DeepEqual(got.SPUs, ref.SPUs) {
			t.Errorf("BurstMax %d: stats\n got %+v\nwant %+v", w, got.SPUs, ref.SPUs)
		}
		if !prof.Equal(refProf) {
			t.Errorf("BurstMax %d: guest profile differs from single-step", w)
		}
		if e.entry != 0 && w == 0 && (steps > 0) != e.steps {
			t.Errorf("BurstMax 0: the run entered at EX pc %d stepped %d times, want stepping %v", e.entry, steps, e.steps)
		}
		if e.ticks != 0 && w == 0 && ticks != e.ticks {
			t.Errorf("BurstMax 0: the SPU ticked %d times, want %d", ticks, e.ticks)
		}
	}
}

func TestBurstKernelEdges(t *testing.T) {
	for _, e := range kernelEdges {
		t.Run(e.name, e.check)
	}
}

// Every register-writing compute opcode, executed inside a window. The
// instruction under test is issued twice back to back behind leading
// compute, so at every window size above 1 at least one of the two
// copies is a pre-executed cycle (the compute slot issues one per cycle
// and a reference cycle is never followed by another); trailing compute
// keeps its pair register-only. Both copies must produce isa.EvalALU's
// value, which TestEvalALUTotal pins to literals, and the usual
// single-step identity must hold. The operand sets make every opcode
// produce a non-zero result at least once.
func TestBurstKernelOpcodes(t *testing.T) {
	operands := []struct{ a, b, imm int32 }{{-37, 5, 3}, {9, 9, 2}, {5, -37, 3}}
	for op := isa.Op(0); int(op) < isa.OpCount; op++ {
		info := isa.MustInfo(op)
		switch info.Unit {
		case isa.UnitFX, isa.UnitSH, isa.UnitMUL, isa.UnitDIV:
		default:
			continue
		}
		if op == isa.NOP {
			continue
		}
		for _, o := range operands {
			ins := isa.Instruction{Op: op, Rd: 1, Imm: o.imm}
			var a, b int64
			switch info.Fmt {
			case isa.FmtRdImm:
			case isa.FmtRdRa, isa.FmtRdRaImm:
				ins.Ra, a = 2, int64(o.a)
			case isa.FmtRdRaRb:
				ins.Ra, a, ins.Rb, b = 2, int64(o.a), 3, int64(o.b)
			default:
				t.Fatalf("%s: unexpected format %d", op, info.Fmt)
			}
			if info.Fmt == isa.FmtRdRa || info.Fmt == isa.FmtRdRaRb {
				ins.Imm = 0
			}
			want := isa.EvalALU(op, a, b, int64(ins.Imm))
			e := kernelEdge{
				ex: func(ex *program.Asm) {
					ex.Movi(program.R(2), o.a)
					ex.Movi(program.R(3), o.b)
					ex.Addi(program.R(5), program.R(2), 1)
					ex.Addi(program.R(6), program.R(3), 1)
					ex.Emit(ins)
					ins4 := ins
					ins4.Rd = 4
					ex.Emit(ins4)
					ex.Add(program.R(5), program.R(5), program.R(6))
					ex.Addi(program.R(6), program.R(5), 1)
				},
				tokens: []int64{want, int64(o.a), int64(o.b), want},
			}
			t.Run(fmt.Sprintf("%s/%d,%d,%d", op, o.a, o.b, o.imm), e.check)
		}
	}
}

// TestBurstLoopShapes sweeps the loops the kernel's run step iterates in
// place, each held to the single-step reference like the edge cases: a
// loop-carried result (r1) made by producers of every latency class, read
// first at the body's first offset or after two dependent fillers, under
// several branch penalties, so the next iteration's first read lands
// before, at and after the result is ready; a do-while form run once or
// four times, and a guarded while-loop whose guard is taken at entry or
// after one or four iterations. The exit reads r1 at once. Two producers
// go through the local store: one writes r1 at a base (r6) that strides
// by 8 plus an invariant delta (r7), reads the same bytes back and uses
// the result at once; the other pairs a compute op with each of its
// local-store ops, and uses what it read after a filler.
func TestBurstLoopShapes(t *testing.T) {
	producers := []struct {
		name string
		emit func(*program.Asm)
	}{
		{"ADDI", func(a *program.Asm) { a.Addi(program.R(1), program.R(1), 3) }},
		{"SHLI", func(a *program.Asm) { a.Shli(program.R(1), program.R(1), 1) }},
		{"MUL", func(a *program.Asm) { a.Mul(program.R(1), program.R(1), program.R(2)) }},
		{"DIV", func(a *program.Asm) { a.Div(program.R(1), program.R(1), program.R(2)) }},
		{"LSRDX8", func(a *program.Asm) {
			a.Emit(isa.Instruction{Op: isa.LSWRX8, Rd: 1, Ra: 6, Rb: 7})
			a.Emit(isa.Instruction{Op: isa.LSRDX8, Rd: 1, Ra: 6, Rb: 7}) // the bytes just written
			a.Addi(program.R(1), program.R(1), 3)
			a.Addi(program.R(6), program.R(6), 8)
		}},
		{"LSRD8-paired", func(a *program.Asm) {
			a.Addi(program.R(8), program.R(8), 1) // the LSWR joins its cycle
			a.Lswr8(program.R(1), program.R(6), 0)
			a.Lsrd8(program.R(9), program.R(6), 0)
			a.Addi(program.R(10), program.R(10), 1) // joins the LSRD's cycle
			a.Add(program.R(1), program.R(9), program.R(2))
		}},
	}
	shapes := []struct {
		guarded bool
		iters   int32
	}{{false, 1}, {false, 4}, {true, 0}, {true, 1}, {true, 4}}
	for _, bp := range []int{0, 1, 2, 5} {
		for _, p := range producers {
			for _, lead := range []int{0, 2} {
				for _, sh := range shapes {
					e := kernelEdge{
						cfg: func(c *cell.Config) { c.SPU.BranchPenalty = bp },
						ex: func(ex *program.Asm) {
							ex.Movi(program.R(1), 1_000_003)
							ex.Movi(program.R(2), 3)
							ex.Movi(program.R(3), sh.iters)
							ex.Addi(program.R(6), program.RegPFB, 0x9000)
							ex.Movi(program.R(7), 8)
							ex.Label("top")
							if sh.guarded {
								ex.Beq(program.R(3), program.R(0), "done")
							}
							for range lead {
								ex.Addi(program.R(5), program.R(5), 1) // waits on the one before
							}
							p.emit(ex)
							ex.Subi(program.R(3), program.R(3), 1)
							if sh.guarded {
								ex.Jmp("top")
								ex.Label("done")
							} else {
								ex.Bne(program.R(3), program.R(0), "top")
							}
							ex.Addi(program.R(4), program.R(1), 1)
						},
					}
					form := "do-while"
					if sh.guarded {
						form = "guarded"
					}
					t.Run(fmt.Sprintf("penalty%d/%s/lead%d/%s%d", bp, p.name, lead, form, sh.iters), e.check)
				}
			}
		}
	}
}
