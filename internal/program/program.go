package program

import (
	"errors"
	"fmt"
	"sync"
)

// Segment is a chunk of the initial main-memory image (global input
// data placed by the host before the TLP activity starts). Data is
// immutable once Build returns, like the rest of a sealed program:
// machines, the oracle and the formatter only read it, and a program and
// its prefetch-transformed variant share it.
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

	seal *seal // set by Seal
}

// Errors returned by Seal, and by the consumers of a program that was
// not sealed.
var (
	ErrNoTemplates = errors.New("program: no templates")
	ErrBadEntry    = errors.New("program: entry template out of range")
	ErrBadID       = errors.New("program: template ID mismatch")
	ErrTooManyArgs = errors.New("program: entry args exceed frame slots")
	ErrSegOverlap  = errors.New("program: memory segments overlap")
	ErrNotSealed   = errors.New("program: not sealed (Builder.Build, asm.Parse and prefetch.Transform seal what they return)")
)

// seal marks a program sealed at its address (a copy of the struct is
// not sealed) and memoises its digest.
type seal struct {
	prog   *Program
	once   sync.Once
	digest [32]byte
}

var onSeal func(*Program) // observes every program sealed (tests only)

// Seal validates p and marks it sealed, the state cell.New,
// Machine.Reset and synth.RunOracle require in place of validating it
// again. Builder.Build, asm.Parse and prefetch.Transform end in Seal, and
// nothing may change a program after it.
func Seal(p *Program) error {
	if err := p.validate(); err != nil {
		return err
	}
	p.seal = &seal{prog: p}
	if onSeal != nil {
		onSeal(p)
	}
	return nil
}

// Sealed reports whether Seal marked p.
func (p *Program) Sealed() bool { return p.seal != nil && p.seal.prog == p }

// validate checks the program header and the templates no Seal has
// validated in a program of as many templates, and marks those: sealing
// what prefetch.Transform returns checks only the templates it rewrote.
func (p *Program) validate() error {
	if len(p.Templates) == 0 {
		return ErrNoTemplates
	}
	for i, t := range p.Templates {
		if t.ID != i {
			return fmt.Errorf("%w: template %q has ID %d at index %d", ErrBadID, t.Name, t.ID, i)
		}
		if t.checked == t && t.checkedIn == len(p.Templates) {
			continue // shared with a sealed program, which only reads it
		}
		if err := t.Validate(p.Templates); err != nil {
			return err
		}
		t.checked, t.checkedIn = t, len(p.Templates)
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
