package main

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/camelot"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/mach"
)

// durable-tx: the storage path. A durable Camelot disk manager keeps its
// segment, write-ahead log and catalog in real files; both clients run
// on its host and each updates its own slice of one recoverable segment.
const (
	dtPageSize = 4096
	// The segment is twice the kernel's memory, so segment pages fault in
	// through the manager's frame pool and dirty ones page out to it.
	dtKernelFrames = 64
	dtSegPages     = 2 * dtKernelFrames
	dtPoolFrames   = 16   // frame pool between the manager and its data volume
	dtLogBlock     = 1024 // log record slot; holds old and new values of dtMaxWrite bytes
	dtSlice        = dtSegPages * dtPageSize / nClients
	dtMaxWrites    = 4
	dtMinWrite     = 16
	dtMaxWrite     = 256
	dtAbortOneIn   = 20
	dtSegment      = "bench"
)

type durableTx struct {
	k       *kern.Kernel
	dm      *mach.CamelotDiskManager
	dir     string
	backend string
}

type dtClient struct {
	cl     *camelot.Client
	seg    *camelot.Segment
	lo     uint64
	shadow []byte // the slice's committed contents
}

func setupDurableTx(dir string, seed uint64, traced bool) (bench, error) {
	k := mach.NewKernel(mach.Config{Frames: dtKernelFrames, PageSize: dtPageSize})
	dm, err := mach.NewDurableCamelotDiskManager(k, dir, mach.CamelotDurableOptions{Frames: dtPoolFrames, LogBlockSize: dtLogBlock})
	if err != nil {
		k.Shutdown()
		return nil, err
	}
	b := &durableTx{k: k, dm: dm, dir: dir, backend: dm.WAL().File().Backend()}
	go dm.Run()
	owner := k.NewTask()
	svc, err := dm.Publish(owner)
	if err == nil {
		err = camelot.Open(owner, svc).CreateSegment(dtSegment, dtSegPages*dtPageSize)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *durableTx) newClient(c *client) error {
	task := b.k.NewTask()
	svc, err := b.dm.Publish(task)
	if err != nil {
		return err
	}
	st := &dtClient{cl: camelot.Open(task, svc), lo: uint64(c.id) * dtSlice}
	if st.seg, err = st.cl.Attach(dtSegment); err != nil {
		return err
	}
	if st.shadow, err = st.seg.Read(st.lo, dtSlice); err != nil {
		return err
	}
	c.state = st
	return nil
}

type dtWrite struct {
	off  uint64
	data []byte
}

// step runs one transaction: 1-4 writes, then a commit (or, one time in
// dtAbortOneIn, an abort), then a read-back of every written range.
func (b *durableTx) step(c *client) {
	st := c.state.(*dtClient)
	c.newGroup()
	writes := make([]dtWrite, 1+c.rng.IntN(dtMaxWrites))
	for i := range writes {
		n := dtMinWrite + c.rng.IntN(dtMaxWrite-dtMinWrite+1)
		writes[i] = dtWrite{off: uint64(c.rng.IntN(dtSlice - n + 1)), data: randBytes(c.rng, n)}
	}
	abort := c.rng.IntN(dtAbortOneIn) == 0
	var err error
	c.op(func() error {
		err = st.transact(c, writes, abort)
		return err
	})
	c.unit("tx")
	if err != nil {
		// Re-read the slice so one failure is not counted again by every
		// later check of the same bytes.
		if cur, rerr := st.seg.Read(st.lo, dtSlice); rerr == nil {
			st.shadow = cur
		}
		return
	}
	if !abort {
		c.unit("commits")
	}
}

func (st *dtClient) transact(c *client, writes []dtWrite, abort bool) error {
	tx := st.cl.Begin()
	for _, w := range writes {
		c.spans.begin(spTxWrite)
		err := tx.Write(st.seg, st.lo+w.off, w.data)
		c.spans.end()
		if err != nil {
			return errors.Join(fmt.Errorf("camelot.write: %w", err), tx.Abort())
		}
	}
	if abort {
		c.spans.begin(spTxAbort)
		err := tx.Abort()
		c.spans.end()
		if err != nil {
			return fmt.Errorf("camelot.abort: %w", err)
		}
	} else {
		c.spans.begin(spTxCommit)
		err := tx.Commit()
		c.spans.end()
		if err != nil {
			return fmt.Errorf("camelot.commit: %w", err)
		}
		for _, w := range writes {
			copy(st.shadow[w.off:], w.data)
		}
	}
	for _, w := range writes {
		c.spans.begin(spVMRead)
		got, err := st.seg.Read(st.lo+w.off, len(w.data))
		c.spans.end()
		if err != nil {
			return fmt.Errorf("read back: %w", err)
		}
		if err := compare(got, st.shadow[w.off:int(w.off)+len(w.data)]); err != nil {
			if abort {
				return fmt.Errorf("abort did not roll back %d bytes at %d: %w", len(w.data), w.off, err)
			}
			return fmt.Errorf("commit read back %d bytes at %d: %w", len(w.data), w.off, err)
		}
	}
	return nil
}

func (b *durableTx) machine() ([]*kern.Kernel, *machine.Topology, *machine.Clock) {
	return []*kern.Kernel{b.k}, b.k.Topology(), b.k.Clock()
}

func (b *durableTx) env() map[string]string {
	return map[string]string{"iomgr_backend": b.backend, "durable_fs": fsTypeOf(b.dir)}
}

func (b *durableTx) extraLogs() []*spanLog { return nil }

var camelotMethods = []rpcMethod{
	{"LogAppend", int32(camelot.MsgLogAppend), spOp},
	{"TxCommit", int32(camelot.MsgTxCommit), spTxCommit},
	{"TxAbort", int32(camelot.MsgTxAbort), spTxAbort},
}

// durableTxTimings are the timings a traced durable-tx run reports.
var durableTxTimings = append([]string{
	"camelot.write_us", "camelot.commit_us", "camelot.abort_us", "vm.read_us",
}, rpcTimings(camelotMethods)...)

func (b *durableTx) layerMetrics(m metrics, w *window) {
	txs := float64(w.units["tx"])
	o := w.d.obs.Counters
	m.setSpanP50("camelot.write_us", spTxWrite, w)
	m.setSpanP50("camelot.commit_us", spTxCommit, w)
	m.setSpanP50("camelot.abort_us", spTxAbort, w)
	m.set("camelot.wal_appends_per_tx", ratio(float64(o["camelot.wal_appends"]), txs), "count")
	m.set("camelot.fsyncs_per_commit", ratio(float64(o["camelot.wal_fsyncs"]), float64(w.units["commits"])), "count")
	m.set("iomgr.submitted_per_tx", ratio(float64(o["iomgr.submitted"]), txs), "count")
	m.set("iomgr.ops_per_batch", ratio(float64(o["iomgr.submitted"]), float64(o["iomgr.batches"])), "count")
	m.set("iomgr.bytes_written_per_tx", ratio(float64(o["iomgr.bytes_written"]), txs), "bytes")
	m.set("iomgr.errors", float64(o["iomgr.errors"]), "count")
	rpcMetrics(m, w, 0, camelotMethods)
}

func (b *durableTx) close() {
	_ = b.dm.Close() // crash-consistent by design; the directory goes next
	b.k.Shutdown()
	if err := os.RemoveAll(b.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove durable directory:", err)
	}
}
