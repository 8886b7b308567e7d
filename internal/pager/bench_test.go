package pager

import (
	"path/filepath"
	"testing"
)

func benchVolume(b *testing.B, blocks, bsize int) *FileVolume {
	b.Helper()
	v, err := OpenFileVolume(filepath.Join(b.TempDir(), "vol"), blocks, bsize)
	if err != nil {
		b.Fatalf("OpenFileVolume: %v", err)
	}
	b.Cleanup(func() { v.Close() })
	return v
}

// BenchmarkColdFault is a fault that misses the frame pool: evict a
// victim, write it back if dirty, read the block from the real file. A
// sequential sweep over a dataset 16x the pool guarantees every access
// misses (the clock hand has recycled the frame long before its block
// comes around again).
func BenchmarkColdFault(b *testing.B) {
	const (
		blocks = 1024
		frames = 64
		bsize  = 4096
	)
	v := benchVolume(b, blocks, bsize)
	fp := NewFramePool(v, frames)
	defer fp.Close()
	buf := make([]byte, bsize)
	// Materialize every block so cold reads hit real data, not the
	// zero-fill path.
	for blk := 0; blk < blocks; blk++ {
		v.Write(blk, buf)
	}
	b.SetBytes(bsize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp.Read(i%blocks, buf)
	}
	b.StopTimer()
	if c := fp.Counters(); c.FrameHits > int64(b.N)/100 {
		b.Fatalf("cold benchmark was warm: %+v", c)
	}
}

// BenchmarkWarmFault is a fault served from a resident frame: one copy
// under the frame lock, no device I/O at all.
func BenchmarkWarmFault(b *testing.B) {
	const (
		blocks = 64
		frames = 64
		bsize  = 4096
	)
	v := benchVolume(b, blocks, bsize)
	fp := NewFramePool(v, frames)
	defer fp.Close()
	buf := make([]byte, bsize)
	for blk := 0; blk < blocks; blk++ {
		fp.Read(blk, buf) // fault everything in
	}
	devReads := v.Counters().Reads
	b.SetBytes(bsize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp.Read(i%blocks, buf)
	}
	b.StopTimer()
	if got := v.Counters().Reads; got != devReads {
		b.Fatalf("warm benchmark did %d device reads", got-devReads)
	}
}
