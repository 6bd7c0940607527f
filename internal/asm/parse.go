// Package asm implements a textual assembly format for DTA programs:
// thread templates with PF/PL/EX/PS code blocks, labels, region
// declarations for the prefetch compiler, tagged reads, the entry
// declaration and initial memory segments. The format round-trips
// through Format/Parse, and `dta asm` exposes it on the command line.
//
// Example:
//
//	.program answer
//	.entry root 42
//
//	.template root
//	.block pl
//	        load r1, 0
//	.block ps
//	        movi r2, -1
//	        store r1, r2, 0     ; mailbox post
//	        ffree
//	        stop
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/program"
)

// Parse assembles source text into a sealed program.
func Parse(src string) (*program.Program, error) {
	p := &parser{
		prog:      &program.Program{ExpectTokens: 1},
		templates: map[string]*tmplState{},
	}
	if err := p.parse(src); err != nil {
		return nil, err
	}
	return p.finish()
}

type tmplState struct {
	t       *program.Template
	regions map[string]int
	// per-block label tables and fixups
	labels [program.NumBlocks]map[string]int
	fixups [program.NumBlocks][]fixup
}

type fixup struct {
	index int
	label string
	line  int
}

type parser struct {
	prog      *program.Program
	templates map[string]*tmplState
	order     []*tmplState

	cur       *tmplState
	block     program.BlockKind
	inBlock   bool
	entryName string
	line      int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("asm: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *parser) parse(src string) error {
	for i, raw := range strings.Split(src, "\n") {
		p.line = i + 1
		line := raw
		if idx := strings.IndexAny(line, ";#"); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var err error
		switch {
		case strings.HasPrefix(line, "."):
			err = p.directive(line)
		case strings.HasSuffix(line, ":"):
			err = p.label(strings.TrimSuffix(line, ":"))
		default:
			err = p.instruction(line)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fields splits on whitespace and commas.
func fields(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ','
	})
}

func (p *parser) directive(line string) error {
	parts := fields(line)
	switch parts[0] {
	case ".program":
		if len(parts) != 2 {
			return p.errf(".program needs a name")
		}
		p.prog.Name = parts[1]
	case ".expect":
		if len(parts) != 2 {
			return p.errf(".expect needs a count")
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return p.errf("bad count %q", parts[1])
		}
		p.prog.ExpectTokens = n
	case ".entry":
		if len(parts) < 2 {
			return p.errf(".entry needs a template name")
		}
		p.entryName = parts[1]
		for _, a := range parts[2:] {
			v, err := parseInt(a)
			if err != nil {
				return p.errf("bad entry arg %q", a)
			}
			p.prog.EntryArgs = append(p.prog.EntryArgs, v)
		}
	case ".segment":
		return p.segment(line)
	case ".template":
		if len(parts) != 2 {
			return p.errf(".template needs a name")
		}
		if _, dup := p.templates[parts[1]]; dup {
			return p.errf("duplicate template %q", parts[1])
		}
		st := &tmplState{
			t:       &program.Template{Name: parts[1], ID: len(p.order)},
			regions: map[string]int{},
		}
		for k := range st.labels {
			st.labels[k] = map[string]int{}
		}
		p.templates[parts[1]] = st
		p.order = append(p.order, st)
		p.cur = st
		p.inBlock = false
	case ".block":
		if p.cur == nil {
			return p.errf(".block outside a template")
		}
		if len(parts) != 2 {
			return p.errf(".block needs pf|pl|ex|ps")
		}
		kind, ok := program.BlockKindByName(parts[1])
		if !ok {
			return p.errf("unknown block %q", parts[1])
		}
		p.block = kind
		p.inBlock = true
	case ".region":
		return p.region(line)
	default:
		return p.errf("unknown directive %q", parts[0])
	}
	return nil
}

// segment: .segment ADDR words32(a,b,...) | words64(...) | zeros(N)
func (p *parser) segment(line string) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, ".segment"))
	sp := strings.IndexAny(rest, " \t")
	if sp < 0 {
		return p.errf(".segment needs an address and data")
	}
	addr, err := parseInt(rest[:sp])
	if err != nil {
		return p.errf("bad segment address %q", rest[:sp])
	}
	body := strings.TrimSpace(rest[sp:])
	open := strings.Index(body, "(")
	if open < 0 || !strings.HasSuffix(body, ")") {
		return p.errf("segment data must be words32(...), words64(...) or zeros(n)")
	}
	kind := body[:open]
	args := fields(body[open+1 : len(body)-1])
	var data []byte
	switch kind {
	case "zeros":
		if len(args) != 1 {
			return p.errf("zeros needs one count")
		}
		n, err := parseInt(args[0])
		if err != nil || n < 0 {
			return p.errf("bad zeros count %q", args[0])
		}
		data = make([]byte, n)
	case "words32", "words64":
		width := 4
		if kind == "words64" {
			width = 8
		}
		for _, a := range args {
			v, err := parseInt(a)
			if err != nil {
				return p.errf("bad word %q", a)
			}
			for b := 0; b < width; b++ {
				data = append(data, byte(uint64(v)>>(8*b)))
			}
		}
	default:
		return p.errf("unknown segment data kind %q", kind)
	}
	p.prog.Segments = append(p.prog.Segments, program.Segment{Addr: addr, Data: data})
	return nil
}

// region: .region NAME base EXPR size EXPR max N [chunk N]
func (p *parser) region(line string) error {
	if p.cur == nil {
		return p.errf(".region outside a template")
	}
	parts := fields(line)
	if len(parts) < 2 {
		return p.errf(".region needs a name")
	}
	name := parts[1]
	if _, dup := p.cur.regions[name]; dup {
		return p.errf("duplicate region %q", name)
	}
	r := program.Region{Name: name, Size: program.SizeConst(1)}
	i := 2
	seenMax := false
	for i < len(parts) {
		switch parts[i] {
		case "base":
			if i+1 >= len(parts) {
				return p.errf("base needs an expression")
			}
			expr, n, err := parseAddrExpr(parts[i+1:])
			if err != nil {
				return p.errf("base: %v", err)
			}
			r.Base = expr
			i += 1 + n
		case "size":
			if i+1 >= len(parts) {
				return p.errf("size needs an expression")
			}
			sz, err := parseSizeExpr(parts[i+1])
			if err != nil {
				return p.errf("size: %v", err)
			}
			r.Size = sz
			i += 2
		case "max":
			if i+1 >= len(parts) {
				return p.errf("max needs a value")
			}
			v, err := parseInt(parts[i+1])
			if err != nil {
				return p.errf("bad max %q", parts[i+1])
			}
			r.MaxBytes = int(v)
			seenMax = true
			i += 2
		case "chunk":
			if i+1 >= len(parts) {
				return p.errf("chunk needs a value")
			}
			v, err := parseInt(parts[i+1])
			if err != nil {
				return p.errf("bad chunk %q", parts[i+1])
			}
			r.ChunkBytes = int(v)
			i += 2
		default:
			return p.errf("unknown region attribute %q", parts[i])
		}
	}
	if !seenMax {
		return p.errf("region %q needs max", name)
	}
	p.cur.regions[name] = len(p.cur.t.Regions)
	p.cur.t.Regions = append(p.cur.t.Regions, r)
	return nil
}

// parseAddrExpr parses terms joined by '+' inside one field (sN*scale,
// sN, or a constant), e.g. "s0*1+s4*128+16".
func parseAddrExpr(parts []string) (program.AddrExpr, int, error) {
	var e program.AddrExpr
	for _, term := range strings.Split(parts[0], "+") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		if strings.HasPrefix(term, "s") {
			slotPart, scalePart := term[1:], "1"
			if star := strings.Index(term, "*"); star >= 0 {
				slotPart, scalePart = term[1:star], term[star+1:]
			}
			slot, err := strconv.Atoi(slotPart)
			if err != nil {
				return e, 0, fmt.Errorf("bad slot in %q", term)
			}
			scale, err := parseInt(scalePart)
			if err != nil {
				return e, 0, fmt.Errorf("bad scale in %q", term)
			}
			e.Terms = append(e.Terms, program.AddrTerm{Slot: slot, Scale: scale})
			continue
		}
		c, err := parseInt(term)
		if err != nil {
			return e, 0, fmt.Errorf("bad constant %q", term)
		}
		e.Const += c
	}
	return e, 1, nil
}

// parseSizeExpr parses "sN", "sN*scale", either with a trailing +C/-C
// constant term, or a bare constant.
func parseSizeExpr(s string) (program.SizeExpr, error) {
	if strings.HasPrefix(s, "s") {
		body, constPart := s[1:], ""
		// Peel a trailing signed constant; skip position 0 so a leading
		// sign on the scale (after '*') is never mistaken for it.
		if star := strings.Index(body, "*"); star >= 0 {
			for i := star + 2; i < len(body); i++ {
				if body[i] == '+' || body[i] == '-' {
					body, constPart = body[:i], body[i:]
					break
				}
			}
		} else {
			for i := 1; i < len(body); i++ {
				if body[i] == '+' || body[i] == '-' {
					body, constPart = body[:i], body[i:]
					break
				}
			}
		}
		slotPart, scalePart := body, "1"
		if star := strings.Index(body, "*"); star >= 0 {
			slotPart, scalePart = body[:star], body[star+1:]
		}
		slot, err := strconv.Atoi(slotPart)
		if err != nil {
			return program.SizeExpr{}, fmt.Errorf("bad slot in %q", s)
		}
		scale, err := parseInt(scalePart)
		if err != nil {
			return program.SizeExpr{}, fmt.Errorf("bad scale in %q", s)
		}
		c := int64(0)
		if constPart != "" {
			c, err = parseInt(strings.TrimPrefix(constPart, "+"))
			if err != nil {
				return program.SizeExpr{}, fmt.Errorf("bad constant in %q", s)
			}
		}
		return program.SizeSlot(slot, scale, c), nil
	}
	c, err := parseInt(s)
	if err != nil {
		return program.SizeExpr{}, fmt.Errorf("bad size %q", s)
	}
	return program.SizeConst(c), nil
}

func (p *parser) label(name string) error {
	if p.cur == nil || !p.inBlock {
		return p.errf("label %q outside a code block", name)
	}
	tbl := p.cur.labels[p.block]
	if _, dup := tbl[name]; dup {
		return p.errf("duplicate label %q", name)
	}
	tbl[name] = len(p.cur.t.Blocks[p.block])
	return nil
}

func (p *parser) instruction(line string) error {
	if p.cur == nil || !p.inBlock {
		return p.errf("instruction outside a code block")
	}
	parts := fields(line)
	mnemonic := parts[0]
	ops := parts[1:]

	// Tagged read: read@region / read8@region.
	var regionIdx = -1
	if at := strings.Index(mnemonic, "@"); at >= 0 {
		regionName := mnemonic[at+1:]
		mnemonic = mnemonic[:at]
		idx, ok := p.cur.regions[regionName]
		if !ok {
			return p.errf("unknown region %q", regionName)
		}
		switch mnemonic {
		case "read", "read8", "write", "write8":
		default:
			return p.errf("only read/read8/write/write8 can be region-tagged")
		}
		regionIdx = idx
	}

	op, ok := isa.ByName(mnemonic)
	if !ok {
		return p.errf("unknown mnemonic %q", mnemonic)
	}
	info := isa.MustInfo(op)

	ins := isa.Instruction{Op: op}
	var branchLabel string
	var err error
	switch info.Fmt {
	case isa.FmtNone:
		err = expectOps(ops, 0)
	case isa.FmtRd:
		if err = expectOps(ops, 1); err == nil {
			ins.Rd, err = parseReg(ops[0])
		}
	case isa.FmtRa:
		if err = expectOps(ops, 1); err == nil {
			ins.Ra, err = parseReg(ops[0])
		}
	case isa.FmtImm:
		if err = expectOps(ops, 1); err == nil {
			branchLabel = ops[0] // jmp target
		}
	case isa.FmtRdImm:
		if op == isa.FALLOC {
			// falloc rd, TEMPLATE, sc — resolved in finish().
			if err = expectOps(ops, 3); err == nil {
				ins.Rd, err = parseReg(ops[0])
				if err == nil {
					p.cur.fixups[p.block] = append(p.cur.fixups[p.block], fixup{
						index: len(p.cur.t.Blocks[p.block]),
						label: "falloc:" + ops[1] + ":" + ops[2],
						line:  p.line,
					})
				}
			}
			break
		}
		if err = expectOps(ops, 2); err == nil {
			ins.Rd, err = parseReg(ops[0])
			if err == nil {
				ins.Imm, err = parseImm(ops[1])
			}
		}
	case isa.FmtRdRa:
		if err = expectOps(ops, 2); err == nil {
			ins.Rd, err = parseReg(ops[0])
			if err == nil {
				ins.Ra, err = parseReg(ops[1])
			}
		}
	case isa.FmtRdRaRb:
		if err = expectOps(ops, 3); err == nil {
			ins.Rd, err = parseReg(ops[0])
			if err == nil {
				ins.Ra, err = parseReg(ops[1])
			}
			if err == nil {
				ins.Rb, err = parseReg(ops[2])
			}
		}
	case isa.FmtRdRaImm:
		if err = expectOps(ops, 3); err == nil {
			ins.Rd, err = parseReg(ops[0])
			if err == nil {
				ins.Ra, err = parseReg(ops[1])
			}
			if err == nil {
				ins.Imm, err = parseImm(ops[2])
			}
		}
	case isa.FmtRaRbImm:
		// Branches: third operand is a label.
		if err = expectOps(ops, 3); err == nil {
			ins.Ra, err = parseReg(ops[0])
			if err == nil {
				ins.Rb, err = parseReg(ops[1])
			}
			if err == nil {
				branchLabel = ops[2]
			}
		}
	case isa.FmtRdRaRbIm:
		if err = expectOps(ops, 4); err == nil {
			ins.Rd, err = parseReg(ops[0])
			if err == nil {
				ins.Ra, err = parseReg(ops[1])
			}
			if err == nil {
				ins.Rb, err = parseReg(ops[2])
			}
			if err == nil {
				ins.Imm, err = parseImm(ops[3])
			}
		}
	}
	if err != nil {
		return p.errf("%s: %v", mnemonic, err)
	}
	if branchLabel != "" {
		p.cur.fixups[p.block] = append(p.cur.fixups[p.block], fixup{
			index: len(p.cur.t.Blocks[p.block]),
			label: branchLabel,
			line:  p.line,
		})
	}
	if regionIdx >= 0 {
		p.cur.t.Accesses = append(p.cur.t.Accesses, program.Access{
			Block: p.block, Index: len(p.cur.t.Blocks[p.block]), Region: regionIdx,
		})
	}
	p.cur.t.Blocks[p.block] = append(p.cur.t.Blocks[p.block], ins)
	return nil
}

func expectOps(ops []string, n int) error {
	if len(ops) != n {
		return fmt.Errorf("want %d operands, got %d", n, len(ops))
	}
	return nil
}

func parseReg(s string) (uint8, error) {
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func parseImm(s string) (int32, error) {
	v, err := parseInt(s)
	if err != nil {
		return 0, err
	}
	if v != int64(int32(v)) {
		return 0, fmt.Errorf("immediate %q exceeds 32 bits", s)
	}
	return int32(v), nil
}

func parseInt(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 64)
}

// finish resolves labels and falloc template references, then validates.
func (p *parser) finish() (*program.Program, error) {
	for _, st := range p.order {
		for k := program.BlockKind(0); k < program.NumBlocks; k++ {
			for _, f := range st.fixups[k] {
				if strings.HasPrefix(f.label, "falloc:") {
					parts := strings.SplitN(f.label, ":", 3)
					target, ok := p.templates[parts[1]]
					if !ok {
						return nil, fmt.Errorf("asm: line %d: falloc of unknown template %q", f.line, parts[1])
					}
					sc, err := strconv.Atoi(parts[2])
					if err != nil {
						return nil, fmt.Errorf("asm: line %d: bad falloc sc %q", f.line, parts[2])
					}
					imm, err := isa.PackFalloc(target.t.ID, sc)
					if err != nil {
						return nil, fmt.Errorf("asm: line %d: %v", f.line, err)
					}
					st.t.Blocks[k][f.index].Imm = imm
					continue
				}
				target, ok := st.labels[k][f.label]
				if !ok {
					return nil, fmt.Errorf("asm: line %d: undefined label %q", f.line, f.label)
				}
				st.t.Blocks[k][f.index].Imm = int32(target)
			}
		}
		p.prog.Templates = append(p.prog.Templates, st.t)
	}
	if p.entryName == "" {
		return nil, fmt.Errorf("asm: missing .entry")
	}
	entry, ok := p.templates[p.entryName]
	if !ok {
		return nil, fmt.Errorf("asm: entry template %q not defined", p.entryName)
	}
	p.prog.Entry = entry.t.ID
	if err := program.Seal(p.prog); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return p.prog, nil
}
