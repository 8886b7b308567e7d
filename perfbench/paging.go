package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/mach"
)

// paging: the memory half. One kernel with half as many frames as the
// clients' working set; each client maps an object served by the
// benchmark's own data manager (so page contents are known) and owns an
// anonymous region that pages out to the default pager. Forks make
// copy-on-write faults under that memory pressure.
const (
	pgPageSize  = 4096
	pgObjPages  = 128 // pager-backed pages per client
	pgAnonPages = 128 // anonymous pages per client
	// pgFrames is half the working set of nClients clients.
	pgFrames = nClients * (pgObjPages + pgAnonPages) / 2
	// Per mille of operations: object reads, anonymous writes, and the
	// rest forks.
	pgReadPermille  = 600
	pgWritePermille = 390
	pgStampLen      = 16
)

type paging struct {
	k       *kern.Kernel
	mgrTask *kern.Task
	mgr     *mach.Manager
	h       *patternPager
	clients []*pgClient
}

// patternPager is the benchmark's data manager: every page it provides
// holds a pattern derived from the seed, the object and the page index,
// so a reader can check what the pager protocol delivered.
type patternPager struct {
	mach.NopHandler
	seed uint64
	// log is the handler's span log (nil untraced); only the manager
	// loop goroutine writes it.
	log *spanLog
}

// pgObject is the Tag of one client's memory object.
type pgObject struct {
	id int
	// requests counts pager_data_request calls served for the object.
	requests atomic.Int64
	// cur is the client's open vm.read span, the parent of the handler
	// span a fault on it causes; group is that span's session ID.
	cur, group atomic.Uint64
}

type pgClient struct {
	task     *kern.Task
	obj      *pgObject
	objAddr  uint64
	anonAddr uint64
	pages    [][]byte // expected object page contents
	stamps   [][pgStampLen]byte
	seq      uint64
	faultNS  offHeap[int64] // durations of reads that went to the pager, inside the window
}

func setupPaging(dir string, seed uint64, traced bool) (bench, error) {
	k := mach.NewKernel(mach.Config{Frames: pgFrames, PageSize: pgPageSize})
	b := &paging{k: k, mgrTask: k.NewTask(), h: &patternPager{seed: seed}}
	if traced {
		b.h.log = newSpanLog(0)
	}
	b.mgr = mach.NewManager(b.mgrTask.Space, b.h)
	go b.mgr.Run()
	return b, nil
}

// pagePattern is the content of page p of object obj.
func pagePattern(seed uint64, obj int, p uint64) []byte {
	b := make([]byte, pgPageSize)
	v := splitmix(seed ^ uint64(obj)<<48 ^ p)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], v^uint64(i))
	}
	return b
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (h *patternPager) DataRequest(mo *mach.MemoryObject, offset, length uint64, desired mach.Prot) {
	o := mo.Tag.(*pgObject)
	parent := spanID(o.cur.Load())
	if parent != 0 {
		h.log.beginUnder(spDataRequest, parent, o.group.Load())
	}
	data := make([]byte, 0, length)
	for off := offset; off < offset+length; off += pgPageSize {
		data = append(data, pagePattern(h.seed, o.id, off/pgPageSize)...)
	}
	o.requests.Add(1)
	// The span ends before the reply is sent: the faulting client can
	// only finish after it, so the run reads a complete log.
	if parent != 0 {
		h.log.end()
	}
	_ = mo.DataProvided(offset, data, mach.ProtNone)
}

func (b *paging) newClient(c *client) error {
	st := &pgClient{task: b.k.NewTask(), obj: &pgObject{id: c.id}}
	mo, err := b.mgr.NewObject(st.obj)
	if err != nil {
		return err
	}
	name, err := b.mgrTask.Space.CopySendRight(st.task.Space, mo.Port)
	if err != nil {
		return err
	}
	if st.objAddr, err = st.task.VMAllocateWithPager(name, 0, 0, pgObjPages*pgPageSize, true); err != nil {
		return err
	}
	if st.anonAddr, err = st.task.VMAllocate(0, pgAnonPages*pgPageSize, true); err != nil {
		return err
	}
	for p := uint64(0); p < pgObjPages; p++ {
		st.pages = append(st.pages, pagePattern(b.h.seed, c.id, p))
	}
	st.stamps = make([][pgStampLen]byte, pgAnonPages)
	b.clients = append(b.clients, st)
	c.state = st
	return nil
}

func (b *paging) step(c *client) {
	st := c.state.(*pgClient)
	c.newGroup()
	r := c.rng.IntN(1000)
	switch {
	case r < pgReadPermille:
		c.op(func() error { return st.readObject(c, uint64(c.rng.IntN(pgObjPages))) })
	case r < pgReadPermille+pgWritePermille:
		c.op(func() error { return st.writeAnon(c, uint64(c.rng.IntN(pgAnonPages))) })
	default:
		c.op(func() error { return st.forkWrite(c, uint64(c.rng.IntN(pgAnonPages))) })
	}
}

// readObject reads one whole object page and checks its pattern.
func (st *pgClient) readObject(c *client, p uint64) error {
	before := st.obj.requests.Load()
	start := time.Since(c.base)
	id := c.spans.begin(spVMRead)
	st.obj.group.Store(c.group)
	st.obj.cur.Store(uint64(id))
	got, err := st.task.VMRead(st.objAddr+p*pgPageSize, pgPageSize)
	st.obj.cur.Store(0)
	c.spans.end()
	end := time.Since(c.base)
	if c.spans != nil && st.obj.requests.Load() != before && int64(start) >= c.from && int64(end) <= c.to {
		st.faultNS.push(int64(end - start))
	}
	if err != nil {
		return fmt.Errorf("vm.read object page %d: %w", p, err)
	}
	if err := compare(got, st.pages[p]); err != nil {
		return fmt.Errorf("object page %d: %w", p, err)
	}
	return nil
}

// stamp returns a fresh value for anonymous page p.
func (st *pgClient) stamp(c *client, p uint64) [pgStampLen]byte {
	st.seq++
	var s [pgStampLen]byte
	binary.LittleEndian.PutUint64(s[:], uint64(c.id+1)<<56|st.seq)
	binary.LittleEndian.PutUint64(s[8:], p)
	return s
}

// checkAnon checks that task's anonymous page p holds want.
func (st *pgClient) checkAnon(c *client, task *kern.Task, p uint64, want [pgStampLen]byte, who string) error {
	c.spans.begin(spVMReadAnon)
	got, err := task.VMRead(st.anonAddr+p*pgPageSize, pgStampLen)
	c.spans.end()
	if err != nil {
		return fmt.Errorf("vm.read %s anonymous page %d: %w", who, p, err)
	}
	if err := compare(got, want[:]); err != nil {
		return fmt.Errorf("%s anonymous page %d: %w", who, p, err)
	}
	return nil
}

// writeAnon checks the value last written to anonymous page p, then
// writes a new one. The write happens even after a failed check, so a
// lost page is counted once, not again at every later visit.
func (st *pgClient) writeAnon(c *client, p uint64) error {
	checkErr := st.checkAnon(c, st.task, p, st.stamps[p], "parent")
	s := st.stamp(c, p)
	c.spans.begin(spVMWrite)
	err := st.task.VMWrite(st.anonAddr+p*pgPageSize, s[:])
	c.spans.end()
	if err != nil {
		return errors.Join(checkErr, fmt.Errorf("vm.write anonymous page %d: %w", p, err))
	}
	st.stamps[p] = s
	return checkErr
}

// forkWrite forks the client task, writes a page in the child (a
// copy-on-write fault), and checks that the child sees its write and
// the parent does not.
func (st *pgClient) forkWrite(c *client, p uint64) error {
	c.spans.begin(spFork)
	child, err := st.task.Fork()
	c.spans.end()
	if err != nil {
		return fmt.Errorf("kern.fork: %w", err)
	}
	s := st.stamp(c, p)
	c.spans.begin(spVMWrite)
	err = child.VMWrite(st.anonAddr+p*pgPageSize, s[:])
	c.spans.end()
	if err != nil {
		err = fmt.Errorf("vm.write child anonymous page %d: %w", p, err)
	}
	if err == nil {
		err = errors.Join(st.checkAnon(c, child, p, s, "child"), st.checkAnon(c, st.task, p, st.stamps[p], "parent"))
	}
	c.spans.begin(spTerminate)
	child.Terminate()
	c.spans.end()
	return err
}

func (b *paging) machine() ([]*kern.Kernel, *machine.Topology, *machine.Clock) {
	return []*kern.Kernel{b.k}, b.k.Topology(), b.k.Clock()
}

func (b *paging) env() map[string]string {
	return map[string]string{"iomgr_backend": "unused", "durable_fs": "unused"}
}

func (b *paging) extraLogs() []*spanLog {
	if b.h.log == nil {
		return nil
	}
	return []*spanLog{b.h.log}
}

// pagingTimings are the timings a traced paging run reports.
var pagingTimings = []string{
	"pager.data_request_us", "pager.protocol_us", "vm.read_us", "vm.read_anon_us", "vm.write_us", "kern.fork_us",
}

func (b *paging) layerMetrics(m metrics, w *window) {
	m.setSpanP50("pager.data_request_us", spDataRequest, w)
	m.setSpanP50("vm.read_anon_us", spVMReadAnon, w)
	var faults []int64
	for _, st := range b.clients {
		for i := 0; i < st.faultNS.len(); i++ {
			faults = append(faults, *st.faultNS.at(i))
		}
	}
	sort.Slice(faults, func(i, j int) bool { return faults[i] < faults[j] })
	if h := w.spans[spDataRequest]; h != nil && len(faults) > 0 {
		m.set("pager.protocol_us", float64(quantile(faults, 0.5)-quantile(h.durs, 0.5))/1e3, "us")
	}
}

func (b *paging) close() {
	b.mgr.Stop()
	b.k.Shutdown()
}
