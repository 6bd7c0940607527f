package program

import (
	"crypto/sha256"
	"fmt"
)

// Digest returns a content hash of everything that shapes a program's
// execution: entry point, templates (code, regions, accesses, prefetch
// layout) and initial memory segments. Two programs with equal digests
// run identically on identically configured machines, which makes the
// digest a sound component of a checkpoint cache key. The functional
// Check hook is deliberately excluded — it runs after the simulation
// and cannot influence it. A sealed program computes it once, on first
// use; most are never asked.
func (p *Program) Digest() [32]byte {
	if !p.Sealed() {
		return p.hash()
	}
	p.seal.once.Do(func() { p.seal.digest = p.hash() })
	return p.seal.digest
}

func (p *Program) hash() [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "prog:%s entry:%d args:%v tokens:%d\n",
		p.Name, p.Entry, p.EntryArgs, p.ExpectTokens)
	for _, t := range p.Templates {
		fmt.Fprintf(h, "tmpl:%d name:%s pf:%d off:%v transformed:%v\n",
			t.ID, t.Name, t.PrefetchBytes, t.RegionOffsets, t.Transformed)
		for k := BlockKind(0); k < NumBlocks; k++ {
			for _, ins := range t.Blocks[k] {
				fmt.Fprintf(h, "%d:%x ", k, ins.Encode())
			}
		}
		fmt.Fprintf(h, "\nregions:%+v\naccesses:%+v\n", t.Regions, t.Accesses)
	}
	for _, s := range p.Segments {
		fmt.Fprintf(h, "seg:%x:", s.Addr)
		h.Write(s.Data)
		fmt.Fprintf(h, "\n")
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}
