package camelot

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/iomgr"
	"repro/internal/kern"
	"repro/internal/pager"
)

// newDurable boots a kernel plus a durable disk manager over dir.
func newDurable(t testing.TB, dir string, o DurableOptions) (*kern.Kernel, *DiskManager, *Client) {
	t.Helper()
	k := kern.NewKernel(kern.Config{Frames: 256, PageSize: pgsz})
	dm, err := NewDurableDiskManager(k, dir, o)
	if err != nil {
		t.Fatal(err)
	}
	go dm.Run()
	app := k.NewTask()
	svc, err := dm.Publish(app)
	if err != nil {
		t.Fatal(err)
	}
	return k, dm, Open(app, svc)
}

// TestDurableReopenAfterCrash is the acceptance scenario: transactions
// against a real-file volume, a crash that loses every cached page and
// all volatile manager state (the process's view dies with dm.Close),
// then a REOPEN from the directory by a brand-new kernel and manager.
// Committed transactions are exactly recovered; an uncommitted
// transaction whose dirty page had already reached the data file is
// rolled back.
func TestDurableReopenAfterCrash(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DataBlocks: 64, LogBlocks: 256, LogBlockSize: pgsz}
	_, dm1, c1 := newDurable(t, dir, opts)

	if err := c1.CreateSegment("acct", 4*pgsz); err != nil {
		t.Fatal(err)
	}
	seg, err := c1.Attach("acct")
	if err != nil {
		t.Fatal(err)
	}
	// Committed state: must survive the crash.
	tx1 := c1.Begin()
	if err := tx1.Write(seg, 0, []byte("GOOD")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Write(seg, pgsz+8, []byte("KEEP")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	st := dm1.wal.Stats()
	if st.Fsyncs == 0 || st.Durable == 0 {
		t.Fatalf("commit did not fsync the log: %+v", st)
	}
	// Uncommitted overwrite of the committed bytes, flushed to the data
	// FILE mid-transaction (the WAL force makes its undo durable) —
	// recovery must roll it back on the real disk image.
	tx2 := c1.Begin()
	if err := tx2.Write(seg, 0, []byte("EVIL")); err != nil {
		t.Fatal(err)
	}
	dm1.mu.Lock()
	mo := dm1.segments["acct"].mo
	dm1.mu.Unlock()
	if err := mo.FlushRequest(0, pgsz); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for dm1.Stats().PageWrites == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if dm1.Stats().PageWrites == 0 {
		t.Fatal("flush write never reached the data file")
	}

	// Crash: close the files without any flush or checkpoint. The
	// kernel's cached pages and the manager's volatile state are gone.
	if err := dm1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from the directory with a fresh kernel: catalog rebuilds
	// the segment table, the log scan finds the durable tail, replay
	// repeats history and rolls the loser back.
	k2, dm2, c2 := newDurable(t, dir, opts)
	defer dm2.Close()
	defer k2.Shutdown()
	data, err := dm2.SegmentBytes("acct")
	if err != nil {
		t.Fatal(err)
	}
	if string(data[0:4]) != "GOOD" {
		t.Fatalf("recovered %q, want GOOD (tx2 rolled back, tx1 kept)", data[0:4])
	}
	if string(data[pgsz+8:pgsz+12]) != "KEEP" {
		t.Fatalf("second committed page lost: %q", data[pgsz+8:pgsz+12])
	}
	// The recovered segment is live: attach and read through the pager,
	// then run a fresh transaction against it.
	seg2, err := c2.Attach("acct")
	if err != nil {
		t.Fatal(err)
	}
	got, err := seg2.Read(0, 4)
	if err != nil || string(got) != "GOOD" {
		t.Fatalf("mapped read after recovery: %q %v", got, err)
	}
	tx := c2.Begin()
	if err := tx.Write(seg2, 2*pgsz, []byte("MORE")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCommitFailsWhenLogDies: a log-device write failure at
// commit time surfaces to the client as a failed commit, and after
// reopening the volume the transaction is NOT recovered — the reply
// and the disk agree.
func TestDurableCommitFailsWhenLogDies(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DataBlocks: 64, LogBlocks: 256, LogBlockSize: pgsz}
	_, dm1, c1 := newDurable(t, dir, opts)

	if err := c1.CreateSegment("s", 2*pgsz); err != nil {
		t.Fatal(err)
	}
	seg, err := c1.Attach("s")
	if err != nil {
		t.Fatal(err)
	}
	tx1 := c1.Begin()
	tx1.Write(seg, 0, []byte("SAFE"))
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Kill the next log write: tx2's update record never reaches the
	// file, so its commit cannot be made durable.
	dm1.wal.File().InjectFault(iomgr.OpWrite, 1, errors.New("injected: log device died"))
	tx2 := c1.Begin()
	if err := tx2.Write(seg, 8, []byte("LOST")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err == nil {
		t.Fatal("commit succeeded although the log device failed")
	}
	if err := dm1.Close(); err != nil {
		t.Fatal(err)
	}

	k2, dm2, _ := newDurable(t, dir, opts)
	defer dm2.Close()
	defer k2.Shutdown()
	data, err := dm2.SegmentBytes("s")
	if err != nil {
		t.Fatal(err)
	}
	if string(data[0:4]) != "SAFE" {
		t.Fatalf("committed tx1 lost: %q", data[0:4])
	}
	for i := 8; i < 12; i++ {
		if data[i] != 0 {
			t.Fatalf("failed commit's data recovered anyway: %q", data[8:12])
		}
	}
}

// TestWALGroupCommitBatchesFsyncs: concurrent Force calls share fsyncs
// — one leader syncs for everybody, so Fsyncs ends strictly below
// Forces.
func TestWALGroupCommitBatchesFsyncs(t *testing.T) {
	w, err := OpenWAL(filepath.Join(t.TempDir(), "wal.log"), 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const records = 96
	for lsn := uint64(1); lsn <= records; lsn++ {
		w.Append(lsn, encodeRecord(&record{lsn: lsn, tx: lsn, kind: recCommit}, 256))
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		lsn := uint64((i + 1) * (records / 8))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Force(lsn); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := w.Stats()
	if st.Durable < records {
		t.Fatalf("durable %d, want >= %d", st.Durable, records)
	}
	if st.Forces != 8 {
		t.Fatalf("forces %d, want 8", st.Forces)
	}
	if st.Fsyncs >= st.Forces {
		t.Fatalf("no group-commit batching: %d fsyncs for %d forces", st.Fsyncs, st.Forces)
	}
	// The scan sees every record (reopen path).
	if got := len(w.scan()); got != records {
		t.Fatalf("scan found %d records, want %d", got, records)
	}
}

// walGuard wraps the data store and asserts, on every page write, that
// the log is DURABLE (fsynced, not merely submitted) through the
// page's last LSN — the paper's pager_flush_request check, on the real
// fsync path.
type walGuard struct {
	pager.BlockStore
	t  *testing.T
	dm *DiskManager
}

func (g *walGuard) Write(block int, src []byte) {
	dm := g.dm
	if dm != nil {
		dm.mu.Lock()
		var lsn uint64
		for _, seg := range dm.bySegID {
			for pg, b := range seg.blocks {
				if b == block {
					if l := dm.pageLSN[pageKey(seg.id, uint64(pg))]; l > lsn {
						lsn = l
					}
				}
			}
		}
		dm.mu.Unlock()
		if d := dm.wal.Durable(); d < lsn {
			g.t.Errorf("block %d written with log durable only to %d, page LSN %d", block, d, lsn)
		}
	}
	g.BlockStore.Write(block, src)
}

// TestDurableWALPrecedesPageWrite evicts recoverable pages under
// memory pressure and checks the stable-storage ordering invariant for
// every single data-file write.
func TestDurableWALPrecedesPageWrite(t *testing.T) {
	dir := t.TempDir()
	k := kern.NewKernel(kern.Config{Frames: 16, PageSize: pgsz})
	defer k.Shutdown()
	vol, err := pager.OpenFileVolume(filepath.Join(dir, "data.vol"), 64, pgsz)
	if err != nil {
		t.Fatal(err)
	}
	guard := &walGuard{BlockStore: vol, t: t}
	wal, err := OpenWAL(filepath.Join(dir, "wal.log"), 1024, pgsz)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := newManager(k, guard, wal)
	if err != nil {
		t.Fatal(err)
	}
	guard.dm = dm
	go dm.Run()
	defer func() {
		dm.Stop()
		wal.Close()
		vol.Close()
	}()
	app := k.NewTask()
	svc, err := dm.Publish(app)
	if err != nil {
		t.Fatal(err)
	}
	c := Open(app, svc)
	if err := c.CreateSegment("big", 32*pgsz); err != nil {
		t.Fatal(err)
	}
	seg, err := c.Attach("big")
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	for i := 0; i < 32; i++ {
		if err := tx.Write(seg, uint64(i)*pgsz, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st := dm.Stats()
	if st.PageWrites == 0 {
		t.Fatal("no page writes despite 2x memory pressure")
	}
	ws := wal.Stats()
	if ws.Fsyncs == 0 {
		t.Fatalf("page writes happened without a single fsync: %+v", ws)
	}
	t.Logf("pageWrites=%d walForces=%d wal=%+v", st.PageWrites, st.WALForces, ws)
}
