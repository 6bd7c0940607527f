package program

import (
	"errors"
	"fmt"
)

// Segment is a chunk of the initial main-memory image (global input
// data placed by the host before the TLP activity starts). Data is
// immutable once Build returns: machines, the oracle and the formatter
// only read it, and Clone shares it, so a program and its transformed
// clone load the same bytes.
type Segment struct {
	Addr int64
	Data []byte
}

// MemReader is the view of main memory that result checkers get after a
// run completes.
type MemReader interface {
	// Read32 returns the sign-extended 32-bit word at addr.
	Read32(addr int64) int64
	// Read64 returns the 64-bit word at addr.
	Read64(addr int64) int64
}

// MailboxFP is the frame-pointer value that designates the PPE mailbox:
// a STORE to this FP delivers a completion token to the host instead of
// to a thread frame. The all-ones pattern can never be a real FP.
const MailboxFP int64 = -1

// Program is a complete DTA program: templates, the entry thread, the
// initial memory image and the completion/verification contract.
type Program struct {
	Name      string
	Templates []*Template

	// Entry is the template ID of the root thread. The PPE FALLOCs it
	// with SC = len(EntryArgs) and stores EntryArgs into slots 0..n-1.
	Entry     int
	EntryArgs []int64

	// ExpectTokens is how many mailbox stores the PPE waits for before
	// declaring the TLP activity complete.
	ExpectTokens int

	// Segments is the initial main-memory image.
	Segments []Segment

	// Check verifies the functional result after the run: tokens are the
	// mailbox values in slot order. It may be nil.
	Check func(mem MemReader, tokens []int64) error
}

// Errors returned by Program.Validate.
var (
	ErrNoTemplates = errors.New("program: no templates")
	ErrBadEntry    = errors.New("program: entry template out of range")
	ErrBadID       = errors.New("program: template ID mismatch")
	ErrTooManyArgs = errors.New("program: entry args exceed frame slots")
	ErrSegOverlap  = errors.New("program: memory segments overlap")
)

// Validate checks the whole program, including every template.
func (p *Program) Validate() error {
	if len(p.Templates) == 0 {
		return ErrNoTemplates
	}
	for i, t := range p.Templates {
		if t.ID != i {
			return fmt.Errorf("%w: template %q has ID %d at index %d", ErrBadID, t.Name, t.ID, i)
		}
		if err := t.Validate(p.Templates); err != nil {
			return err
		}
	}
	if p.Entry < 0 || p.Entry >= len(p.Templates) {
		return fmt.Errorf("%w: %d", ErrBadEntry, p.Entry)
	}
	if len(p.EntryArgs) > MaxFrameSlots {
		return fmt.Errorf("%w: %d", ErrTooManyArgs, len(p.EntryArgs))
	}
	if p.ExpectTokens < 1 {
		return errors.New("program: ExpectTokens must be >= 1")
	}
	for i := 0; i < len(p.Segments); i++ {
		a := p.Segments[i]
		if a.Addr < 0 || len(a.Data) == 0 {
			return fmt.Errorf("program: segment %d empty or negative address", i)
		}
		for j := i + 1; j < len(p.Segments); j++ {
			b := p.Segments[j]
			if a.Addr < b.Addr+int64(len(b.Data)) && b.Addr < a.Addr+int64(len(a.Data)) {
				return fmt.Errorf("%w: [%#x,%#x) and [%#x,%#x)", ErrSegOverlap,
					a.Addr, a.Addr+int64(len(a.Data)), b.Addr, b.Addr+int64(len(b.Data)))
			}
		}
	}
	return nil
}

// CodeLen returns the total instruction count over all templates.
func (p *Program) CodeLen() int {
	n := 0
	for _, t := range p.Templates {
		n += t.CodeLen()
	}
	return n
}

// MaxPrefetchBytes returns the largest per-thread prefetch reservation
// over all templates (used to size the LS prefetch heap check).
func (p *Program) MaxPrefetchBytes() int {
	max := 0
	for _, t := range p.Templates {
		if t.PrefetchBytes > max {
			max = t.PrefetchBytes
		}
	}
	return max
}

// Clone returns a copy of the program that shares nothing mutable with
// it: code, regions, access tags and entry arguments are copied, the
// segments' immutable Data (see Segment) is shared. The prefetch
// transformer operates on a clone so that a single built program can be
// run both ways (with and without prefetching) from the same in-memory
// object.
func (p *Program) Clone() *Program {
	q := &Program{
		Name:         p.Name,
		Entry:        p.Entry,
		EntryArgs:    append([]int64(nil), p.EntryArgs...),
		ExpectTokens: p.ExpectTokens,
		Segments:     append([]Segment(nil), p.Segments...),
		Check:        p.Check,
	}
	for _, t := range p.Templates {
		nt := &Template{
			Name:          t.Name,
			ID:            t.ID,
			Regions:       append([]Region(nil), t.Regions...),
			Accesses:      append([]Access(nil), t.Accesses...),
			PrefetchBytes: t.PrefetchBytes,
			RegionOffsets: append([]int(nil), t.RegionOffsets...),
			Transformed:   t.Transformed,
		}
		for k := range t.Blocks {
			nt.Blocks[k] = append(nt.Blocks[k][:0:0], t.Blocks[k]...)
		}
		q.Templates = append(q.Templates, nt)
	}
	return q
}
