package fs

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// readCounts is what a read costs: disk reads, and the pages ReadAt
// served from disk and from the kernel cache.
type readCounts struct{ disk, atDisk, atCached uint64 }

func countReads(srv *Server) readCounts {
	m := obs.FS()
	return readCounts{uint64(srv.Disk().Stats().Reads), m.ReadAtDisk.Load(), m.ReadAtCached.Load()}
}

// expectReads runs fn and checks exactly what it cost.
func expectReads(t *testing.T, srv *Server, want readCounts, fn func()) {
	t.Helper()
	before := countReads(srv)
	fn()
	after := countReads(srv)
	got := readCounts{after.disk - before.disk, after.atDisk - before.atDisk, after.atCached - before.atCached}
	if got != want {
		t.Fatalf("disk reads %d, ReadAt pages from disk %d, from cache %d; want %d, %d, %d",
			got.disk, got.atDisk, got.atCached, want.disk, want.atDisk, want.atCached)
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// warmReadAt reads [off, off+n) of the named file through h until the
// kernel cache holds it. The first ReadAt of a file creates its memory
// object; the server sees the kernel's pager_init only after that call,
// so the first read cannot supply the cache and the second one does.
func warmReadAt(t *testing.T, srv *Server, h *Handle, name string, off uint64, n int) {
	t.Helper()
	read := func() {
		if _, err := h.ReadAt(off, n); err != nil {
			t.Fatal(err)
		}
	}
	read()
	srv.mu.Lock()
	mo := srv.files[name].mo
	srv.mu.Unlock()
	waitFor(t, "pager_init", func() bool { return srv.mgr.RequestPortReady(mo) })
	read()
	waitFor(t, "pages in the kernel cache", func() bool {
		hit, err := srv.task.ReadResident(mo.Port, off, make([]byte, n))
		return err == nil && hit
	})
}

// pattern returns n bytes that differ from page to page and within one.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i) + byte(i/pgsz)*31
	}
	return b
}

// openFile creates a file and opens it from a fresh client task.
func openFile(t *testing.T, srv *Server, name string, content []byte) *Handle {
	t.Helper()
	if err := srv.CreateFile(name, content); err != nil {
		t.Fatal(err)
	}
	client := srv.kernel.NewTask()
	svc, err := srv.Publish(client)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Open(client, svc, name)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestReadAtServedFromKernelCache(t *testing.T) {
	_, srv, _ := newFS(t)
	content := pattern(3*pgsz, 1)
	h := openFile(t, srv, "f", content)
	off, n := uint64(pgsz-10), 20 // touches pages 0 and 1
	read := func() {
		got, err := h.ReadAt(off, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content[off:off+uint64(n)]) {
			t.Fatalf("read %v, want %v", got, content[off:off+uint64(n)])
		}
	}
	// Cold: one disk read per page touched.
	expectReads(t, srv, readCounts{disk: 2, atDisk: 2}, read)
	warmReadAt(t, srv, h, "f", off, n)
	// Warm: the pages come from the kernel cache, none from disk.
	expectReads(t, srv, readCounts{atCached: 2}, read)
	expectReads(t, srv, readCounts{atCached: 2}, read)
}

// The message view (ReadAt) and the mapped view (ReadFile) of a file are
// two views of one memory object, so each warms the cache for the other.
func TestReadAtAndReadFileShareOneCache(t *testing.T) {
	t.Run("ReadAt warms ReadFile", func(t *testing.T) {
		_, srv, client := newFS(t)
		content := pattern(3*pgsz, 2)
		h := openFile(t, srv, "f", content)
		warmReadAt(t, srv, h, "f", 0, 10) // page 0 only
		svc, _ := srv.Publish(client)
		// The mapped read faults pages 1 and 2 in from disk; page 0 is
		// already cached.
		expectReads(t, srv, readCounts{disk: 2}, func() {
			addr, size, err := ReadFile(client, svc, "f")
			if err != nil {
				t.Fatal(err)
			}
			got, err := client.VMRead(addr, size)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content) {
				t.Fatal("ReadFile content mismatch")
			}
		})
	})
	t.Run("ReadFile warms ReadAt", func(t *testing.T) {
		_, srv, client := newFS(t)
		content := pattern(3*pgsz, 3)
		h := openFile(t, srv, "f", content)
		svc, _ := srv.Publish(client)
		expectReads(t, srv, readCounts{disk: 3}, func() {
			addr, size, err := ReadFile(client, svc, "f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.VMRead(addr, size); err != nil {
				t.Fatal(err)
			}
		})
		expectReads(t, srv, readCounts{atCached: 3}, func() {
			got, err := h.ReadAt(0, len(content))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content) {
				t.Fatal("ReadAt content mismatch")
			}
		})
	})
}

func TestReadAtSeesWriteFile(t *testing.T) {
	_, srv, client := newFS(t)
	h := openFile(t, srv, "f", pattern(2*pgsz, 4))
	warmReadAt(t, srv, h, "f", 0, 2*pgsz)

	next := pattern(2*pgsz, 5)
	svc, _ := srv.Publish(client)
	addr, err := client.VMAllocate(0, uint64(len(next)), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.VMWrite(addr, next); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(client, svc, "f", addr, uint64(len(next))); err != nil {
		t.Fatal(err)
	}
	// The write flushed the cached pages: both come from disk again,
	// with the new bytes.
	expectReads(t, srv, readCounts{disk: 2, atDisk: 2}, func() {
		got, err := h.ReadAt(0, len(next))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, next) {
			t.Fatal("ReadAt after WriteFile returned the old contents")
		}
	})
}

// TestRewriteLeavesNoStalePages rewrites a file while readers of both
// kinds run. Every page supplied to the kernel cache is read from disk
// under the same lock the rewrite holds, so a page read before a rewrite
// is always flushed by it: no read that starts after CreateFile returns
// may see an older version.
func TestRewriteLeavesNoStalePages(t *testing.T) {
	k, srv, _ := newFS(t)
	const size = 3 * pgsz
	version := func(v int) []byte { return bytes.Repeat([]byte{byte(v)}, size) }
	if err := srv.CreateFile("f", version(1)); err != nil {
		t.Fatal(err)
	}
	var stored atomic.Int32 // newest version whose CreateFile returned
	stored.Store(1)
	stale := func(kind string, min int, got []byte) error {
		if len(got) != size {
			return fmt.Errorf("%s read %d bytes, want %d", kind, len(got), size)
		}
		for i, b := range got {
			if int(b) < min {
				return fmt.Errorf("%s byte %d is version %d, after version %d was stored", kind, i, b, min)
			}
		}
		return nil
	}

	const readers = 3
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var reads [readers]atomic.Int64
	var wg sync.WaitGroup
	reader := func(i int, kind string, read func() ([]byte, error)) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			min := int(stored.Load())
			got, err := read()
			if err == nil {
				err = stale(kind, min, got)
			}
			if err != nil {
				errs <- err
				return
			}
			reads[i].Add(1)
		}
	}
	for i := 0; i < 2; i++ {
		c := k.NewTask()
		svc, _ := srv.Publish(c)
		h, err := Open(c, svc, "f")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go reader(i, "ReadAt", func() ([]byte, error) { return h.ReadAt(0, size) })
	}
	c := k.NewTask()
	svc, _ := srv.Publish(c)
	wg.Add(1)
	go reader(2, "ReadFile", func() ([]byte, error) {
		addr, n, err := ReadFile(c, svc, "f")
		if err != nil {
			return nil, err
		}
		defer c.VMDeallocate(addr, MappedSize(c, n))
		return c.VMRead(addr, n)
	})

	// Each rewrite waits for every reader to finish a read, so reads and
	// rewrites keep overlapping for the whole run.
	var last [readers]int64
	for v := 2; v <= 200 && len(errs) == 0; v++ {
		if err := srv.CreateFile("f", version(v)); err != nil {
			t.Fatal(err)
		}
		stored.Store(int32(v))
		deadline := time.Now().Add(5 * time.Second)
		for i := range reads {
			for reads[i].Load() == last[i] && len(errs) == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("reader %d made no progress", i)
				}
				time.Sleep(50 * time.Microsecond)
			}
			last[i] = reads[i].Load()
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
