package cell

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/program"
)

// resultsIdentical compares every reported number of two runs.
func resultsIdentical(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if want.Cycles != got.Cycles {
		t.Errorf("%s: cycles fresh=%d reused=%d", label, want.Cycles, got.Cycles)
	}
	if !reflect.DeepEqual(want.Tokens, got.Tokens) {
		t.Errorf("%s: tokens fresh=%v reused=%v", label, want.Tokens, got.Tokens)
	}
	if !reflect.DeepEqual(want.Agg, got.Agg) {
		t.Errorf("%s: aggregate stats differ\nfresh=%+v\nreused=%+v", label, want.Agg, got.Agg)
	}
	if !reflect.DeepEqual(want.SPUs, got.SPUs) {
		t.Errorf("%s: per-SPU stats differ", label)
	}
	if !reflect.DeepEqual(want.LSEs, got.LSEs) {
		t.Errorf("%s: LSE stats differ", label)
	}
	if !reflect.DeepEqual(want.MFCs, got.MFCs) {
		t.Errorf("%s: MFC stats differ", label)
	}
	if !reflect.DeepEqual(want.DSEs, got.DSEs) {
		t.Errorf("%s: DSE stats differ", label)
	}
	if want.Mem != got.Mem {
		t.Errorf("%s: memory stats fresh=%+v reused=%+v", label, want.Mem, got.Mem)
	}
	if want.Net != got.Net {
		t.Errorf("%s: network stats fresh=%+v reused=%+v", label, want.Net, got.Net)
	}
}

// TestMachineResetIdentity runs a sequence of different programs on one
// reused machine and checks every run is indistinguishable — cycles,
// all statistics, tokens and the final memory image — from the same
// program on a freshly built machine. This is the contract the machine
// pool relies on.
func TestMachineResetIdentity(t *testing.T) {
	cfg := smallConfig(2)
	progs := []struct {
		name string
		p    *program.Program
	}{
		{"loop", progLoop(t, 100)},
		{"memory", progMemory(t)},
		{"minimal", progMinimal(t)},
		{"dma", progManualDMA(t)},
		{"forkjoin", progForkJoin(t, 6)},
		{"loop-again", progLoop(t, 100)},
	}

	reused, err := New(cfg, progs[0].p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, tc := range progs {
		if i > 0 {
			if err := reused.Reset(tc.p); err != nil {
				t.Fatalf("Reset(%s): %v", tc.name, err)
			}
		}
		got, err := reused.Run()
		if err != nil {
			t.Fatalf("reused Run(%s): %v", tc.name, err)
		}
		if got.CheckErr != nil {
			t.Fatalf("reused %s functional check: %v", tc.name, got.CheckErr)
		}

		fresh, err := New(cfg, tc.p)
		if err != nil {
			t.Fatalf("New(%s): %v", tc.name, err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatalf("fresh Run(%s): %v", tc.name, err)
		}
		resultsIdentical(t, want, got, tc.name)
		if addr, equal := mem.FirstDiff(fresh.MemSparse(), reused.MemSparse()); !equal {
			t.Errorf("%s: memory image diverges at %#x", tc.name, addr)
		}
	}
}

// TestPoolRecyclesMachines exercises Get/Put across configurations and
// programs.
func TestPoolRecyclesMachines(t *testing.T) {
	pool := NewPool()
	cfg1, cfg2 := smallConfig(1), smallConfig(2)

	m1, err := pool.Get(cfg1, progMinimal(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Put(m1)

	// Same config: the pooled machine comes back, reset for a new program.
	m2, err := pool.Get(cfg1, progLoop(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Error("same-config Get did not reuse the pooled machine")
	}
	res, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckErr != nil {
		t.Fatalf("functional check: %v", res.CheckErr)
	}

	// Different config while m2 is out: a fresh build.
	m3, err := pool.Get(cfg2, progMinimal(t))
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m2 {
		t.Error("different-config Get returned the same machine")
	}
	if m3.Config() != cfg2 {
		t.Errorf("Config() = %+v, want cfg2", m3.Config())
	}
	pool.Put(m2)
	pool.Put(m3)

	// A nil pool degrades to plain construction.
	var nilPool *Pool
	m4, err := nilPool.Get(cfg1, progMinimal(t))
	if err != nil {
		t.Fatal(err)
	}
	nilPool.Put(m4)
}

// progFootprint dirties main memory widely: a non-zero image from just
// below one 64 KiB page boundary to just above the third one after it
// (footprintBytes from footprintBase), and a word written five pages
// further on.
const (
	footprintBase  = 0x100000 - 100
	footprintBytes = 3<<16 + 200
	footprintWrite = 5 << 16
)

func progFootprint(t testing.TB) *program.Program {
	b := program.NewBuilder("footprint")
	root := b.Template("root")
	root.PL().Load(program.R(1), 0)
	ex := root.EX()
	ex.Read(program.R(2), program.R(1), 0)
	ex.Write(program.R(2), program.R(1), footprintWrite)
	root.PS().
		StoreMailbox(program.R(2), program.R(3), 0).
		Ffree().
		Stop()
	b.Entry(root, footprintBase)
	b.Segment(footprintBase, bytes.Repeat([]byte{0xa5}, footprintBytes))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPooledMachineForgetsLargerFootprint: main memory is reset and
// compared by written extent, so the case to prove is a machine that
// dirtied many pages widely and is then handed a program that touches a
// few bytes of one of them. The pooled machine must match a fresh one in
// its results, its memory image and, captured halfway, its snapshot blob
// byte for byte — and, read back without consulting any extent, hold
// nothing of the first program.
func TestPooledMachineForgetsLargerFootprint(t *testing.T) {
	cfg := smallConfig(1)
	pool := NewPool()
	big, err := pool.Get(cfg, progFootprint(t))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := big.Run(); err != nil || res.Tokens[0] != int64(int32(-0x5a5a5a5b)) {
		t.Fatalf("footprint run: %v, %v", res, err)
	}
	pool.Put(big)

	small := progMemory(t) // reads and writes 12 bytes at 0x100000
	reused, err := pool.Get(cfg, small)
	if err != nil {
		t.Fatal(err)
	}
	if reused != big {
		t.Fatal("the pool built a machine instead of recycling the used one")
	}
	fresh, err := New(cfg, small)
	if err != nil {
		t.Fatal(err)
	}

	const half = 150 // the first of progMemory's two READs is under way
	key := SnapshotKey(cfg, small, half)
	var blobs [2][]byte
	for i, m := range []*Machine{fresh, reused} {
		if _, st, err := m.RunTo(half); err != nil || st != StepBudget {
			t.Fatalf("RunTo(%d): status %v, %v", half, st, err)
		}
		if blobs[i], err = m.EncodeSnapshot(key); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Errorf("snapshot of the reused machine (%d bytes) differs from the fresh machine's (%d bytes)", len(blobs[1]), len(blobs[0]))
	}

	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := reused.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckErr != nil {
		t.Fatalf("reused machine: functional check: %v", got.CheckErr)
	}
	resultsIdentical(t, want, got, "after a larger footprint")
	if addr, equal := mem.FirstDiff(fresh.MemSparse(), reused.MemSparse()); !equal {
		t.Errorf("memory image diverges at %#x", addr)
	}
	// FirstDiff and Snapshot trust the extents on both sides; a plain read
	// does not. Everything the first program left must read as zero, bar
	// the 12 bytes at 0x100000 the second one owns.
	image := make([]byte, footprintWrite+8)
	if err := reused.MemSparse().ReadInto(footprintBase, image); err != nil {
		t.Fatal(err)
	}
	for i, v := range image {
		if addr := int64(footprintBase + i); v != 0 && (addr < 0x100000 || addr >= 0x100000+12) {
			t.Fatalf("byte %#x of the reused machine reads %#x: left over from the larger program", addr, v)
		}
	}
}
