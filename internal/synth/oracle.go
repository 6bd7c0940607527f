package synth

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dta"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// The functional oracle: an untimed interpreter over isa instructions
// that computes a program's expected mailbox tokens and final memory
// image without the cycle engine. It executes original (untransformed)
// programs only — local-store and MFC instructions are rejected — and
// runs threads to completion in a deterministic FIFO order. DTA
// programs synchronise exclusively through frame-store counters, so any
// schedule-independent program produces the same result here as on the
// timed machine; a divergence between the two is a bug in one of them
// (or a program whose result depends on timing, which the differential
// checker treats the same way).

// oracleMemCap bounds the oracle's sparse memory (matches the machine's
// default 512 MB main memory).
const oracleMemCap = 512 << 20

// ErrOracleDeadlock reports that execution drained with waiting threads
// or missing tokens.
var ErrOracleDeadlock = errors.New("synth: oracle deadlock")

// ErrOracleSteps reports the step budget was exhausted (runaway loop).
var ErrOracleSteps = errors.New("synth: oracle step budget exhausted")

// WriteRec records one main-memory write performed by the program (the
// byte ranges the differential checker compares across runs).
type WriteRec struct {
	Addr  int64
	Width int
}

// OracleResult is the oracle's view of a completed run.
type OracleResult struct {
	Tokens  []int64 // mailbox values in slot order (as cell.Result.Tokens)
	Mem     *mem.Sparse
	Writes  []WriteRec
	Steps   int64 // instructions interpreted
	Threads int   // threads executed to STOP
}

// Reader returns the final memory image as a program.MemReader.
func (r *OracleResult) Reader() program.MemReader { return mem.Reader{S: r.Mem} }

// oracleMems holds memory images handed back by Release: a fresh
// mem.Sparse allocates its 64 KiB pages again for every program, which
// was most of what a differential check allocated.
var oracleMems sync.Pool

// Release hands the memory image back for the next RunOracle to reuse;
// r.Mem and Reader must not be used afterwards. Optional: a result that
// is never released is simply collected.
func (r *OracleResult) Release() {
	r.Mem.Reset()
	oracleMems.Put(r.Mem)
	r.Mem = nil
}

type oThread struct {
	id    int
	tmpl  int
	frame [program.MaxFrameSlots]int64
	sc    int
	freed bool // frame released (no further stores allowed)
	done  bool
}

type oracle struct {
	prog     *program.Program
	mem      *mem.Sparse
	threads  []*oThread
	ready    []int
	tokens   map[int64]int64
	writes   []WriteRec
	steps    int64
	maxSteps int64
	threadsN int
}

// RunOracle interprets p (which must be an original, untransformed
// program) and returns its functional result. maxSteps bounds total
// interpreted instructions (<= 0 selects a 50M default).
func RunOracle(p *program.Program, maxSteps int64) (*OracleResult, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("synth: oracle input invalid: %w", err)
	}
	if maxSteps <= 0 {
		maxSteps = 50_000_000
	}
	image, _ := oracleMems.Get().(*mem.Sparse)
	if image == nil {
		image = mem.NewSparse(oracleMemCap)
	}
	o := &oracle{
		prog:     p,
		mem:      image,
		tokens:   make(map[int64]int64),
		maxSteps: maxSteps,
	}
	for _, seg := range p.Segments {
		if err := o.mem.WriteBytes(seg.Addr, seg.Data); err != nil {
			return nil, fmt.Errorf("synth: oracle segment at %#x: %w", seg.Addr, err)
		}
	}

	// The PPE side: allocate the entry thread with SC = len(EntryArgs)
	// and store the arguments.
	rootFP, err := o.falloc(p.Entry, len(p.EntryArgs))
	if err != nil {
		return nil, err
	}
	for i, arg := range p.EntryArgs {
		if err := o.routeStore(rootFP, int64(i), arg); err != nil {
			return nil, err
		}
	}

	for len(o.ready) > 0 {
		id := o.ready[0]
		o.ready = o.ready[1:]
		if err := o.runThread(o.threads[id]); err != nil {
			return nil, err
		}
	}

	if len(o.tokens) < p.ExpectTokens {
		waiting := 0
		for _, th := range o.threads {
			if !th.done && !th.freed {
				waiting++
			}
		}
		return nil, fmt.Errorf("%w: %d/%d tokens, %d threads waiting on stores",
			ErrOracleDeadlock, len(o.tokens), p.ExpectTokens, waiting)
	}

	slots := make([]int64, 0, len(o.tokens))
	for s := range o.tokens {
		slots = append(slots, s)
	}
	for i := 1; i < len(slots); i++ { // insertion sort; token counts are tiny
		for j := i; j > 0 && slots[j] < slots[j-1]; j-- {
			slots[j], slots[j-1] = slots[j-1], slots[j]
		}
	}
	res := &OracleResult{
		Mem: o.mem, Writes: o.writes, Steps: o.steps, Threads: o.threadsN,
	}
	for _, s := range slots {
		res.Tokens = append(res.Tokens, o.tokens[s])
	}
	return res, nil
}

// falloc allocates a thread object and returns its frame pointer. A
// zero SC thread is immediately ready.
func (o *oracle) falloc(tmpl, sc int) (int64, error) {
	if tmpl < 0 || tmpl >= len(o.prog.Templates) {
		return 0, fmt.Errorf("synth: oracle falloc of template %d (have %d)", tmpl, len(o.prog.Templates))
	}
	if sc < 0 || sc > program.MaxFrameSlots {
		return 0, fmt.Errorf("synth: oracle falloc sc %d", sc)
	}
	th := &oThread{id: len(o.threads), tmpl: tmpl, sc: sc}
	o.threads = append(o.threads, th)
	if sc == 0 {
		o.ready = append(o.ready, th.id)
	}
	return dta.MakeFP(0, th.id), nil
}

// routeStore delivers a frame store: to the mailbox, or to a thread's
// frame (decrementing its SC).
func (o *oracle) routeStore(fp, slot, value int64) error {
	if dta.IsMailbox(fp) {
		if _, dup := o.tokens[slot]; dup {
			return fmt.Errorf("synth: oracle duplicate mailbox token in slot %d", slot)
		}
		o.tokens[slot] = value
		return nil
	}
	if !dta.IsFP(fp) {
		return fmt.Errorf("synth: oracle store to non-FP value %#x", fp)
	}
	_, id, err := dta.SplitFP(fp)
	if err != nil {
		return err
	}
	if id >= len(o.threads) {
		return fmt.Errorf("synth: oracle store to unknown thread %d", id)
	}
	th := o.threads[id]
	if th.freed {
		return fmt.Errorf("synth: oracle store to freed frame of thread %d", id)
	}
	if th.sc <= 0 {
		return fmt.Errorf("synth: oracle store to thread %d with SC already 0", id)
	}
	if slot < 0 || slot >= program.MaxFrameSlots {
		return fmt.Errorf("synth: oracle frame slot %d out of range", slot)
	}
	th.frame[slot] = value
	th.sc--
	if th.sc == 0 {
		o.ready = append(o.ready, th.id)
	}
	return nil
}

// runThread executes a ready thread's PL, EX and PS blocks to
// completion.
func (o *oracle) runThread(th *oThread) error {
	var regs [isa.NumRegs]int64
	regs[isa.RegFP] = dta.MakeFP(0, th.id)
	regs[isa.RegTag] = int64(th.id)
	tmpl := o.prog.Templates[th.tmpl]
	if len(tmpl.Blocks[program.PF]) > 0 {
		return fmt.Errorf("synth: oracle cannot run transformed template %q (PF block present)", tmpl.Name)
	}

	for _, kind := range []program.BlockKind{program.PL, program.EX, program.PS} {
		code := tmpl.Blocks[kind]
		pc := 0
		for pc < len(code) {
			o.steps++
			if o.steps > o.maxSteps {
				return fmt.Errorf("%w (%d)", ErrOracleSteps, o.maxSteps)
			}
			ins := code[pc]
			info := isa.MustInfo(ins.Op)
			a, bv := regs[ins.Ra], regs[ins.Rb]

			set := func(r uint8, v int64) {
				if r != isa.RegZero {
					regs[r] = v
				}
			}

			switch ins.Op {
			case isa.NOP:

			case isa.MOVI, isa.MOVHI, isa.MOV,
				isa.ADD, isa.ADDI, isa.SUB, isa.SUBI, isa.MUL, isa.MULI,
				isa.DIV, isa.REM, isa.AND, isa.ANDI, isa.OR, isa.ORI,
				isa.XOR, isa.XORI, isa.SHL, isa.SHLI, isa.SHR, isa.SHRI,
				isa.SRA, isa.SRAI, isa.CMPEQ, isa.CMPLT, isa.CMPLTU:
				set(ins.Rd, isa.EvalALU(ins.Op, a, bv, int64(ins.Imm)))

			case isa.JMP, isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
				if isa.BranchTaken(ins.Op, a, bv) {
					pc = int(ins.Imm)
					continue
				}

			case isa.LOAD, isa.LOADX:
				slot := int64(ins.Imm)
				if ins.Op == isa.LOADX {
					slot = a
				}
				if slot < 0 || slot >= program.MaxFrameSlots {
					return fmt.Errorf("synth: oracle frame load slot %d in %s", slot, tmpl.Name)
				}
				set(ins.Rd, th.frame[slot])

			case isa.STORE, isa.STOREX:
				slot := int64(ins.Imm)
				if ins.Op == isa.STOREX {
					slot = bv
				}
				if err := o.routeStore(a, slot, regs[ins.Rd]); err != nil {
					return fmt.Errorf("%w (in %s/%s[%d])", err, tmpl.Name, kind, pc)
				}

			case isa.READ, isa.READ8:
				addr := a + int64(ins.Imm)
				var v int64
				var err error
				if ins.Op == isa.READ {
					v, err = o.mem.Read32(addr)
				} else {
					v, err = o.mem.Read64(addr)
				}
				if err != nil {
					return fmt.Errorf("synth: oracle read in %s: %w", tmpl.Name, err)
				}
				set(ins.Rd, v)

			case isa.WRITE, isa.WRITE8:
				addr := a + int64(ins.Imm)
				width := 4
				var err error
				if ins.Op == isa.WRITE {
					err = o.mem.Write32(addr, regs[ins.Rd])
				} else {
					width = 8
					err = o.mem.Write64(addr, regs[ins.Rd])
				}
				if err != nil {
					return fmt.Errorf("synth: oracle write in %s: %w", tmpl.Name, err)
				}
				o.writes = append(o.writes, WriteRec{Addr: addr, Width: width})

			case isa.FALLOC, isa.FALLOCX:
				var ft, sc int
				if ins.Op == isa.FALLOC {
					ft, sc = isa.UnpackFalloc(ins.Imm)
				} else {
					ft, sc = int(a), int(bv)
				}
				fp, err := o.falloc(ft, sc)
				if err != nil {
					return err
				}
				set(ins.Rd, fp)

			case isa.FFREE:
				th.freed = true

			case isa.STOP:
				th.done = true
				o.threadsN++
				return nil

			default:
				_ = info
				return fmt.Errorf("synth: oracle cannot interpret %s (op %s in %s/%s): transformed or LS/MFC code is outside the untimed model",
					ins, ins.Op, tmpl.Name, kind)
			}
			pc++
		}
	}
	return fmt.Errorf("synth: oracle PS block of %s fell through without STOP", tmpl.Name)
}
