package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestDiskSpillRoundTrip: Store then Load returns the blob, Bytes
// reflects the directory, and no .tmp litter survives.
func TestDiskSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskSpill(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s.Store("abc123", []byte("snapshot-bytes"))
	blob, ok := s.Load("abc123")
	if !ok || string(blob) != "snapshot-bytes" {
		t.Fatalf("Load = %q, %v", blob, ok)
	}
	if _, ok := s.Load("missing"); ok {
		t.Error("Load found a key never stored")
	}
	if got := s.Bytes(); got != int64(len("snapshot-bytes")) {
		t.Errorf("Bytes = %d, want %d", got, len("snapshot-bytes"))
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("tmp file %s left behind", e.Name())
		}
	}
}

// TestDiskSpillEviction: a Store beyond the byte cap removes the least
// recently used file from disk, never the one just written; a reopened
// spill takes that order from the files' mtimes, a Load refreshes it,
// and opening over a directory already beyond the cap trims it.
func TestDiskSpillEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskSpill(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	age := func(key string, d time.Duration) {
		t.Helper()
		at := time.Now().Add(-d)
		if err := os.Chtimes(filepath.Join(dir, key+".snap"), at, at); err != nil {
			t.Fatal(err)
		}
	}
	onDisk := func(key string) bool {
		_, err := os.Stat(filepath.Join(dir, key+".snap"))
		return err == nil
	}
	s.Store("a", make([]byte, 40))
	s.Store("b", make([]byte, 40))
	age("a", 2*time.Hour)
	age("b", time.Hour)

	// Restart: a is the oldest file, and the Load makes b the coldest.
	s, err = NewDiskSpill(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load("a"); !ok {
		t.Fatal("a not served after a restart")
	}
	s.Store("c", make([]byte, 40)) // 120 > 100: b goes
	if onDisk("b") || !onDisk("a") || !onDisk("c") {
		t.Errorf("on disk after eviction: a %v, b %v, c %v; want a and c", onDisk("a"), onDisk("b"), onDisk("c"))
	}
	if got := s.Bytes(); got != 80 {
		t.Errorf("Bytes = %d, want 80", got)
	}

	age("a", time.Hour)
	if _, err := NewDiskSpill(dir, 50); err != nil {
		t.Fatal(err)
	}
	if onDisk("a") || !onDisk("c") {
		t.Errorf("opening under a smaller cap kept a %v, c %v; want c alone", onDisk("a"), onDisk("c"))
	}

	// An oversized single entry is kept (evicting it would thrash).
	s2, err := NewDiskSpill(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	s2.Store("huge", make([]byte, 500))
	if _, ok := s2.Load("huge"); !ok {
		t.Error("oversized entry was evicted on insert")
	}
}

// TestDiskSpillRemovesLeftoverTmp: a crash between the write and the
// rename leaves <key>.snap.tmp behind; the next open removes it, so it
// neither sits outside the cap nor counts in Bytes, and leaves every
// other file alone.
func TestDiskSpillRemovesLeftoverTmp(t *testing.T) {
	dir := t.TempDir()
	for name, n := range map[string]int{"torn.snap.tmp": 1000, "kept.snap": 10, "notes.txt": 3} {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewDiskSpill(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "torn.snap.tmp")); !os.IsNotExist(err) {
		t.Errorf("leftover tmp file survived the open (stat: %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Errorf("unrelated file removed: %v", err)
	}
	if got := s.Bytes(); got != 10 {
		t.Errorf("Bytes = %d, want 10", got)
	}
	if _, ok := s.Load("kept"); !ok {
		t.Error("existing snapshot not served")
	}
}

// TestServiceCheckpointSpill: a service configured with a checkpoint
// directory persists warm-up snapshots while running the phase
// experiment, and a second service over the same directory — a restart
// — serves them as hits.
func TestServiceCheckpointSpill(t *testing.T) {
	dir := t.TempDir()
	opt := harness.Options{Quick: true, SPEs: 2}

	s1 := New(Config{Workers: 1, CheckpointDir: dir})
	job, err := s1.Submit("phase-memlat", opt)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	if job.State != JobDone {
		t.Fatalf("job failed: %s", job.Err)
	}
	s1.Close()
	if s1.spill.Bytes() == 0 {
		t.Fatal("no snapshots spilled to disk")
	}

	// Restart: the fresh process's first fork finds its prefix on disk.
	hits := harness.CheckpointHits.Load()
	misses := harness.CheckpointMisses.Load()
	s2 := New(Config{Workers: 1, CheckpointDir: dir})
	defer s2.Close()
	job2, err := s2.Submit("phase-memlat", opt)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job2)
	if job2.State != JobDone {
		t.Fatalf("restarted job failed: %s", job2.Err)
	}
	if harness.CheckpointHits.Load() == hits {
		t.Error("restarted service never hit the on-disk checkpoints")
	}
	if got := harness.CheckpointMisses.Load() - misses; got != 0 {
		// Every prefix the first service captured should be served from
		// the spill; a miss means key derivation drifted across restarts.
		t.Errorf("restarted service missed %d checkpoint lookups", got)
	}
}
