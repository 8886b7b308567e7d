package camelot

import (
	"path/filepath"
	"testing"
)

// BenchmarkWALAppend measures the write-ahead log's append rate on a
// real file. Slots cycle through a fixed window so the file stays
// small at any b.N; LSN bookkeeping is what's under test, not ext4.
//
//   - group-commit: records are appended asynchronously and a Force
//     lands every 64 records — the batch shape a busy disk manager
//     settles into, one fsync covering 64 commits.
//   - force-every: the naive discipline, one fsync per record — the
//     baseline group commit exists to beat.
func BenchmarkWALAppend(b *testing.B) {
	const slots = 8192
	bench := func(b *testing.B, every int) {
		w, err := OpenWAL(filepath.Join(b.TempDir(), "wal.log"), slots, 512)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		rec := encodeRecord(&record{lsn: 1, tx: 1, kind: recCommit}, 512)
		b.SetBytes(512)
		b.ResetTimer()
		var lsn uint64
		for i := 0; i < b.N; i++ {
			lsn = uint64(i%slots + 1)
			w.Append(lsn, rec)
			if (i+1)%every == 0 {
				if err := w.Force(lsn); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := w.Force(lsn); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st := w.Stats()
		b.ReportMetric(float64(st.Fsyncs)/float64(b.N)*1000, "fsyncs/kop")
	}
	b.Run("group-commit", func(b *testing.B) { bench(b, 64) })
	b.Run("force-every", func(b *testing.B) { bench(b, 1) })
}

// The log slot window for BenchmarkDurableCommit must outlast b.N
// commits (LSNs there do not cycle): 1<<20 record slots of 512 bytes
// is a sparse 512 MiB address range of which only the appended prefix
// materializes.

// BenchmarkDurableCommit is the end-to-end transaction path against a
// real-file disk manager: log append RPCs, a commit RPC, and the
// group-committed fsync the reply waits on.
func BenchmarkDurableCommit(b *testing.B) {
	k, dm, c := newDurable(b, b.TempDir(), DurableOptions{DataBlocks: 64, LogBlocks: 1 << 20, LogBlockSize: 512})
	defer dm.Close()
	defer k.Shutdown()
	if err := c.CreateSegment("bench", 8*pgsz); err != nil {
		b.Fatal(err)
	}
	seg, err := c.Attach("bench")
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := c.Begin()
		if err := tx.Write(seg, uint64(i%(8*pgsz-8)), payload); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
