package iomgr

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openTemp opens a fresh file for one test. Each test runs as a subtest
// named after the engine, "pool" (File.Backend), like BenchmarkWriteAt.
func openTemp(t *testing.T, opts Options) *File {
	t.Helper()
	opts.Create = true
	f, err := Open(filepath.Join(t.TempDir(), "f"), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestReadWriteRoundTrip(t *testing.T) {
	t.Run("pool", func(t *testing.T) {
		f := openTemp(t, Options{})
		if got := f.Backend(); got != "pool" {
			t.Fatalf("Backend() = %q, want pool", got)
		}
		data := []byte("the duality of memory and communication")
		if _, err := f.SyncWriteAt(data, 4096); err != nil {
			t.Fatalf("write: %v", err)
		}
		buf := make([]byte, len(data))
		n, err := f.SyncReadAt(buf, 4096)
		if err != nil || n != len(data) {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("read back %q, want %q", buf, data)
		}
	})
}

func TestReadPastEOFZeroFills(t *testing.T) {
	t.Run("pool", func(t *testing.T) {
		f := openTemp(t, Options{})
		if _, err := f.SyncWriteAt([]byte("abc"), 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Straddling EOF: first 3 bytes real, rest zero.
		buf := bytes.Repeat([]byte{0xff}, 16)
		n, err := f.SyncReadAt(buf, 0)
		if err != nil || n != 16 {
			t.Fatalf("straddling read: n=%d err=%v", n, err)
		}
		want := append([]byte("abc"), make([]byte, 13)...)
		if !bytes.Equal(buf, want) {
			t.Fatalf("straddling read = %x, want %x", buf, want)
		}
		// Entirely past EOF.
		buf = bytes.Repeat([]byte{0xff}, 8)
		n, err = f.SyncReadAt(buf, 1<<20)
		if err != nil || n != 8 {
			t.Fatalf("past-EOF read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf, make([]byte, 8)) {
			t.Fatalf("past-EOF read = %x, want zeros", buf)
		}
	})
}

func TestConcurrentOpsAndCounters(t *testing.T) {
	const (
		nops  = 256
		bsize = 512
	)
	t.Run("pool", func(t *testing.T) {
		f := openTemp(t, Options{QueueDepth: 8})
		// Async writes of distinct blocks, all in flight together.
		ops := make([]*Op, nops)
		for i := range ops {
			buf := bytes.Repeat([]byte{byte(i + 1)}, bsize)
			ops[i] = f.WriteAt(buf, int64(i)*bsize)
		}
		for i, op := range ops {
			if n, err := op.Await(); err != nil || n != bsize {
				t.Fatalf("write %d: n=%d err=%v", i, n, err)
			}
		}
		if err := f.SyncFsync(); err != nil {
			t.Fatalf("fsync: %v", err)
		}
		// Read them all back concurrently.
		for i := range ops {
			buf := make([]byte, bsize)
			ops[i] = f.ReadAt(buf, int64(i)*bsize)
		}
		for i, op := range ops {
			if _, err := op.Await(); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if op.Buf[0] != byte(i+1) || op.Buf[bsize-1] != byte(i+1) {
				t.Fatalf("read %d: got %x", i, op.Buf[0])
			}
		}
		st := f.Stats()
		if st.Submitted != 2*nops+1 || st.Completed != st.Submitted || st.Inflight != 0 {
			t.Fatalf("counters: %+v", st)
		}
		if st.BytesWritten != nops*bsize || st.BytesRead != nops*bsize || st.Fsyncs != 1 {
			t.Fatalf("byte counters: %+v", st)
		}
		if st.Batches <= 0 || st.Batches > st.Submitted {
			t.Fatalf("batches: %+v", st)
		}
	})
}

// TestBatching proves the dispatcher folds queued submissions into
// fewer dispatcher rounds than one per op.
func TestBatching(t *testing.T) {
	t.Run("pool", func(t *testing.T) {
		f := openTemp(t, Options{QueueDepth: 64})
		const nops = 512
		ops := make([]*Op, nops)
		buf := make([]byte, 64)
		for i := range ops {
			ops[i] = f.WriteAt(buf, 0)
		}
		for _, op := range ops {
			op.Await()
		}
		st := f.Stats()
		if st.Batches >= st.Submitted {
			t.Fatalf("no batching: %d batches for %d ops", st.Batches, st.Submitted)
		}
		t.Logf("%d ops in %d batches (%.1f ops/batch)",
			st.Submitted, st.Batches, float64(st.Submitted)/float64(st.Batches))
	})
}

func TestRandomReadWriteStress(t *testing.T) {
	const (
		blocks = 64
		bsize  = 1024
		iters  = 2000
	)
	t.Run("pool", func(t *testing.T) {
		f := openTemp(t, Options{QueueDepth: 16})
		var mu sync.Mutex
		shadow := make([][]byte, blocks) // last written content per block
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < iters/8; i++ {
					blk := rng.Intn(blocks)
					if rng.Intn(2) == 0 {
						data := bytes.Repeat([]byte{byte(rng.Intn(256))}, bsize)
						mu.Lock() // serialize per-run so shadow matches file
						if _, err := f.SyncWriteAt(data, int64(blk)*bsize); err != nil {
							mu.Unlock()
							t.Errorf("write: %v", err)
							return
						}
						shadow[blk] = data
						mu.Unlock()
					} else {
						buf := make([]byte, bsize)
						mu.Lock()
						if _, err := f.SyncReadAt(buf, int64(blk)*bsize); err != nil {
							mu.Unlock()
							t.Errorf("read: %v", err)
							return
						}
						want := shadow[blk]
						mu.Unlock()
						if want != nil && !bytes.Equal(buf, want) {
							t.Errorf("block %d: read %x want %x", blk, buf[0], want[0])
							return
						}
					}
				}
			}(int64(g))
		}
		wg.Wait()
	})
}

func TestInjectFault(t *testing.T) {
	t.Run("pool", func(t *testing.T) {
		f := openTemp(t, Options{})
		boom := errors.New("boom")
		f.InjectFault(OpWrite, 2, boom)
		buf := make([]byte, 32)
		for i := 0; i < 2; i++ {
			if _, err := f.SyncWriteAt(buf, 0); err != nil {
				t.Fatalf("write %d before fault: %v", i, err)
			}
		}
		if _, err := f.SyncWriteAt(buf, 0); !errors.Is(err, boom) {
			t.Fatalf("faulted write err = %v, want boom", err)
		}
		// Other kinds unaffected.
		if _, err := f.SyncReadAt(buf, 0); err != nil {
			t.Fatalf("read during write-fault: %v", err)
		}
		f.InjectFault(OpWrite, 0, nil) // clear
		if _, err := f.SyncWriteAt(buf, 0); err != nil {
			t.Fatalf("write after clear: %v", err)
		}
		if st := f.Stats(); st.Errors != 1 {
			t.Fatalf("error counter: %+v", st)
		}
	})
}

func TestCloseSemantics(t *testing.T) {
	t.Run("pool", func(t *testing.T) {
		f := openTemp(t, Options{QueueDepth: 8})
		// Queue work, then close: everything in flight completes.
		ops := make([]*Op, 64)
		buf := make([]byte, 128)
		for i := range ops {
			ops[i] = f.WriteAt(buf, int64(i)*128)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for i, op := range ops {
			if _, err := op.Await(); err != nil {
				t.Fatalf("op %d after close: %v", i, err)
			}
		}
		if _, err := f.SyncWriteAt(buf, 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("write after close: %v, want ErrClosed", err)
		}
		if err := f.Close(); !errors.Is(err, ErrClosed) {
			t.Fatalf("double close: %v, want ErrClosed", err)
		}
	})
}

func BenchmarkWriteAt(b *testing.B) {
	f, err := Open(filepath.Join(b.TempDir(), "f"), Options{Create: true})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	b.Run("pool", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if _, err := f.SyncWriteAt(buf, int64(i%256)*4096); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pool-pipelined", func(b *testing.B) {
		b.SetBytes(4096)
		const window = 32
		ops := make([]*Op, 0, window)
		for i := 0; i < b.N; i++ {
			ops = append(ops, f.WriteAt(buf, int64(i%256)*4096))
			if len(ops) == window {
				for _, op := range ops {
					op.Await()
				}
				ops = ops[:0]
			}
		}
		for _, op := range ops {
			op.Await()
		}
	})
}

func ExampleFile() {
	dir, err := os.MkdirTemp("", "iomgr-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	// Typical use: submit a batch, await completions.
	f, err := Open(filepath.Join(dir, "f"), Options{Create: true})
	if err != nil {
		panic(err)
	}
	defer f.Close()
	w := f.WriteAt([]byte("hello"), 0)
	if _, err := w.Await(); err == nil {
		_ = f.SyncFsync()
	}
	fmt.Println("ok")
	// Output: ok
}
