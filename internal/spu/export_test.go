package spu

import (
	"fmt"
	"slices"

	"repro/internal/program"
)

// Access to the shared decode table for the external tests.

// DecodedCode returns the decode table the SPU reads.
func (s *SPU) DecodedCode() *Code { return s.code }

// Arena returns the uops carved from the table's arena so far.
func (c *Code) Arena() []uop { return c.arena }

// CheckTables compares every table decoded so far with a decode of the
// same block into new memory, and returns how many uops they hold.
func (c *Code) CheckTables() (uops int, err error) {
	for i, u := range c.tab {
		if u == nil {
			continue
		}
		tmpl, blk := i/int(program.NumBlocks), program.BlockKind(i%int(program.NumBlocks))
		if want := NewCode(c.cfg).decode(c.prog.Templates[tmpl].Blocks[blk]); !slices.Equal(u, want) {
			return 0, fmt.Errorf("template %d %s block differs from a decode into new memory", tmpl, blk)
		}
		uops += len(u)
	}
	return uops, nil
}
