package mem

import "testing"

// smallImage writes an image of the size synth scenarios leave in main
// memory (they average 2.8 pages and 571 written bytes) into s: a
// kilobyte, spread over four 64 KiB pages.
func smallImage(b *testing.B, s *Sparse) {
	b.Helper()
	chunk := make([]byte, 256)
	for i := range chunk {
		chunk[i] = byte(i) | 1
	}
	for page := int64(0); page < 4; page++ {
		if err := s.WriteFrom(0x100000+page*pageSize+0x400, chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseResetSmallImage is the memory side of a pooled
// machine's Reset between two small programs: load the image, forget it.
func BenchmarkSparseResetSmallImage(b *testing.B) {
	s := NewSparse(512 << 20)
	for i := 0; i < b.N; i++ {
		smallImage(b, s)
		s.Reset()
	}
}

// BenchmarkFirstDiffSmallImage is the whole-image comparison the
// differential checker makes twice per seed, on two equal small images.
func BenchmarkFirstDiffSmallImage(b *testing.B) {
	x, y := NewSparse(512<<20), NewSparse(512<<20)
	smallImage(b, x)
	smallImage(b, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, equal := FirstDiff(x, y); !equal {
			b.Fatal("equal images differ")
		}
	}
}
