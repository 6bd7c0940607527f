package service

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/lru"
)

// DefaultCheckpointDiskBytes bounds the checkpoint spill directory
// when Config.CheckpointDiskBytes is unset.
const DefaultCheckpointDiskBytes = 1 << 30

// DiskSpill persists harness checkpoint snapshots in a directory, one
// file per key, so warm-up prefixes survive service restarts. It
// implements harness.CheckpointSpill.
//
// Layout: <dir>/<key>.snap, where key is the hex SnapshotKey (already
// filesystem-safe). Writes go to <key>.snap.tmp in the same directory
// and rename into place, so a crash mid-write never leaves a torn
// snapshot a later Load could serve (the envelope checksum would catch
// it, but the entry would be poison until evicted); a .tmp file such a
// crash leaves behind is removed when the spill next opens.
//
// An in-memory LRU index of the files, priced by their sizes, bounds
// the directory: a Store beyond the byte cap removes the least recently
// used files, never the one just written. The index is seeded at open
// from the files' modification times, oldest first (removing the oldest
// of a directory already beyond the cap), and Load refreshes a file's
// mtime, so the order survives a restart.
//
// Unlike the in-memory caches, one spill is shared by every worker in
// the process, so all operations take an internal lock.
type DiskSpill struct {
	mu    sync.Mutex
	dir   string
	index *lru.Cache[string, int64] // key -> file size
}

// NewDiskSpill opens (creating if needed) a spill directory bounded to
// capBytes on disk (<= 0 selects DefaultCheckpointDiskBytes).
func NewDiskSpill(dir string, capBytes int64) (*DiskSpill, error) {
	if capBytes <= 0 {
		capBytes = DefaultCheckpointDiskBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint spill: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint spill: %w", err)
	}
	var files []fs.FileInfo
	for _, de := range ents {
		switch name := de.Name(); {
		case strings.HasSuffix(name, ".snap.tmp"):
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, ".snap"):
			if info, err := de.Info(); err == nil {
				files = append(files, info)
			}
		}
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].ModTime().Before(files[j].ModTime()) })
	s := &DiskSpill{dir: dir}
	size := func(n int64) int64 { return n }
	s.index = lru.New(capBytes, size, func(key string, _ int64) { _ = os.Remove(s.path(key)) })
	for _, f := range files {
		s.index.Put(strings.TrimSuffix(f.Name(), ".snap"), f.Size())
	}
	return s, nil
}

func (s *DiskSpill) path(key string) string {
	return filepath.Join(s.dir, key+".snap")
}

// Load returns the snapshot stored under key, refreshing its
// modification time and its place in the index so recently used
// entries survive eviction.
func (s *DiskSpill) Load(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index.Get(key); !ok {
		return nil, false
	}
	blob, err := os.ReadFile(s.path(key))
	if err != nil {
		s.index.Remove(key)
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(s.path(key), now, now)
	return blob, true
}

// Store persists blob under key atomically (tmp file + rename), then
// evicts the least recently used entries beyond the byte cap. Errors
// are swallowed — the spill is an optimisation; a failed write only
// costs the next restart its warm start.
func (s *DiskSpill) Store(key string, blob []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := s.path(key) + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		_ = os.Remove(tmp)
		return
	}
	s.index.Put(key, int64(len(blob)))
}

// Bytes reports the indexed .snap byte total.
func (s *DiskSpill) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.Cost()
}
