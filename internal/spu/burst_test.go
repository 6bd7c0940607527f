package spu_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/isa"
	"repro/internal/program"
)

// Edge cases of the burst kernel, each run at several window sizes and
// held to the single-step reference (BurstMax 1): same end cycle, same
// per-SPU statistics, same guest profile, and the same final r1..r4
// (posted as mailbox tokens). The small windows put the limit inside
// the bubble, stall or issue group under test; 0 is the default window.

var edgeWindows = []int{2, 3, 7, 0}

type kernelEdge struct {
	name    string
	cfg     func(*cell.Config)
	arg     int64              // frame slot 0 of the root thread
	pf      func(*program.Asm) // hand-written PF block fetching 64 bytes, if any
	pl      func(*program.Asm) // defaults to a lone LOAD r9
	ex      func(*program.Asm)
	tokens  []int64 // the expected r1..r4, if set
	wantErr string  // the run must fail with this at every window size
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
		name: "ALU write to RegZero",
		ex: func(ex *program.Asm) {
			ex.Movi(program.R(2), 5)
			ex.Addi(program.R(0), program.R(2), 9) // discarded, no scoreboard entry
			ex.Add(program.R(1), program.R(0), program.R(2))
			ex.Mul(program.R(0), program.R(2), program.R(2))
			ex.Add(program.R(3), program.R(0), program.R(1)) // must not wait LatMUL
		},
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
			ex.Lsrd(program.R(1), program.R(9), 0) // pre-executed at every window > 1
			ex.Addi(program.R(4), program.R(1), 1)
		},
		wantErr: "ls:",
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

func (e kernelEdge) run(t *testing.T, burstMax int) (*cell.Result, error) {
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
	cfg.Profile = true
	if e.cfg != nil {
		e.cfg(&cfg)
	}
	cfg.SPU.BurstMax = burstMax
	m, err := cell.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

// check runs e at every window size against the single-step reference.
func (e kernelEdge) check(t *testing.T) {
	ref, refErr := e.run(t, 1)
	if e.wantErr == "" && refErr != nil {
		t.Fatalf("single-step: %v", refErr)
	}
	if e.tokens != nil && !reflect.DeepEqual(ref.Tokens, e.tokens) {
		t.Errorf("single-step: r1..r4 = %v, want %v", ref.Tokens, e.tokens)
	}
	for _, w := range edgeWindows {
		got, err := e.run(t, w)
		if e.wantErr != "" {
			for _, err := range []error{refErr, err} {
				if err == nil || !strings.Contains(err.Error(), e.wantErr) {
					t.Fatalf("BurstMax %d: err = %v, want %q", w, err, e.wantErr)
				}
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
		if !got.Prof.Equal(ref.Prof) {
			t.Errorf("BurstMax %d: guest profile differs from single-step", w)
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
