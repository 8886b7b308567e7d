package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"repro/internal/fs"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/mach"
)

// remote-fs: the communication half. The fs server runs on host 0 of a
// 3-host NORMA complex and its clients on hosts 1 and 2, so every call
// crosses netmsg; each session is a fresh task that looks the server up
// by name, so lookups, proxies and no-senders reaping are exercised too.
//
// remote-fs-inline is the same complex, files and sessions with only the
// calls whose data travels inline in messages: Open+ReadAt+Close and
// Stat, in remote-fs's 35:20 proportion. It leaves out the two calls that
// move data as mapped memory, ReadFile and WriteFile, whose out-of-line
// regions pass through the kernel's shared transit map; on more than one
// CPU those reads return wrong bytes (ROADMAP item 1), so remote-fs
// cannot run a window without failures.
const (
	fsService       = "fs"
	fsHosts         = 3
	fsFramesPerHost = 1024
	fsPageSize      = 4096
	fsCallsPerSess  = 50
	fsReadAtLen     = 1024
	fsPrivateFiles  = 4        // client-private files each client rewrites
	fsMaxWrite      = 16 << 10 // largest private file written
	fsDiskBlocks    = 1024     // server disk, in pages
)

// fsSeedSizes are the seeded files: 4 each of 512 B, 8 KiB and 64 KiB.
var fsSeedSizes = []int{512, 512, 512, 512, 8 << 10, 8 << 10, 8 << 10, 8 << 10, 64 << 10, 64 << 10, 64 << 10, 64 << 10}

// fsMix is a call mix as cumulative percentages: a draw below readAt is
// Open+ReadAt+Close, below readFile a ReadFile, below stat a Stat, and
// the rest a WriteFile.
type fsMix struct {
	readAt, readFile, stat int
	methods                []rpcMethod // the calls the mix makes
}

var (
	fsFullMix   = fsMix{35, 70, 90, fsMethods}
	fsInlineMix = fsMix{64, 64, 100, fsInlineMethods}
)

type remoteFS struct {
	kernels []*kern.Kernel
	topo    *machine.Topology
	clock   *machine.Clock
	srv     *fs.Server
	seeded  map[string][]byte
	names   []string
	mix     fsMix
}

// fsClient is one client's view: its host and the contents it expects
// of every file it may read (the seeded ones and its own writes).
type fsClient struct {
	kernel  *kern.Kernel
	files   map[string][]byte
	names   []string // readable names: seeded, then private ones once written
	private []string
}

func setupRemoteFS(dir string, seed uint64, traced bool) (bench, error) {
	return bootRemoteFS(seed, fsFullMix)
}

func setupRemoteFSInline(dir string, seed uint64, traced bool) (bench, error) {
	return bootRemoteFS(seed, fsInlineMix)
}

func bootRemoteFS(seed uint64, mix fsMix) (bench, error) {
	kernels, topo, clock := mach.Complex(fsHosts, machine.NORMA, fsFramesPerHost, fsPageSize)
	b := &remoteFS{kernels: kernels, topo: topo, clock: clock, seeded: map[string][]byte{}, mix: mix}
	srv, err := fs.NewServer(kernels[0], machine.NewDisk(fsDiskBlocks, fsPageSize, machine.DefaultDiskLatency, clock))
	if err != nil {
		b.close()
		return nil, err
	}
	b.srv = srv
	go srv.Run()
	rng := rand.New(rand.NewPCG(seed, 0))
	for i, size := range fsSeedSizes {
		name := fmt.Sprintf("seed-%02d-%d", i, size)
		data := randBytes(rng, size)
		if err := srv.CreateFile(name, data); err != nil {
			b.close()
			return nil, err
		}
		b.seeded[name] = data
		b.names = append(b.names, name)
	}
	reg := kernels[0].NewTask()
	svc, err := srv.Publish(reg)
	if err == nil {
		err = mach.NetMsgCheckIn(reg, fsService, svc)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, (n+7)&^7)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	return b[:n]
}

func (b *remoteFS) newClient(c *client) error {
	st := &fsClient{kernel: b.kernels[1+c.id%(fsHosts-1)], files: map[string][]byte{}}
	for name, data := range b.seeded {
		st.files[name] = data
	}
	st.names = append(st.names, b.names...)
	for i := 0; i < fsPrivateFiles; i++ {
		st.private = append(st.private, fmt.Sprintf("private-c%d-%d", c.id, i))
	}
	c.state = st
	return nil
}

// step runs one session: a fresh task, a lookup, fsCallsPerSess calls,
// and the task's termination.
func (b *remoteFS) step(c *client) {
	st := c.state.(*fsClient)
	c.newGroup()
	c.spans.begin(spSession)
	defer c.spans.end()
	c.unit("sessions")

	c.spans.begin(spNewTask)
	task := st.kernel.NewTask()
	c.spans.end()
	defer func() {
		c.spans.begin(spTerminate)
		task.Terminate()
		c.spans.end()
	}()

	var svc ipc.Name
	var lookupErr error
	c.op(func() error {
		c.spans.begin(spLookup)
		svc, lookupErr = mach.NetMsgLookUp(task, fsService)
		c.spans.end()
		if lookupErr != nil {
			return fmt.Errorf("netmsg.lookup: %w", lookupErr)
		}
		return nil
	})
	if lookupErr != nil {
		c.fail(fsCallsPerSess, fmt.Errorf("session without server: %w", lookupErr))
		return
	}
	var staging uint64
	for i := 0; i < fsCallsPerSess; i++ {
		r := c.rng.IntN(100)
		name := st.names[c.rng.IntN(len(st.names))]
		want := st.files[name]
		switch {
		case r < b.mix.readAt:
			off := uint64(c.rng.IntN(len(want)))
			c.op(func() error { return fsOpenReadAt(c, task, svc, name, off, want) })
		case r < b.mix.readFile:
			c.op(func() error { return fsReadFile(c, task, svc, name, want) })
		case r < b.mix.stat:
			c.op(func() error { return fsStat(c, task, svc, name, want) })
		default:
			name := st.private[c.rng.IntN(len(st.private))]
			data := randBytes(c.rng, 1+c.rng.IntN(fsMaxWrite))
			c.op(func() error {
				var err error
				if staging == 0 {
					c.spans.begin(spVMAlloc)
					staging, err = task.VMAllocate(0, fsMaxWrite, true)
					c.spans.end()
					if err != nil {
						staging = 0
						return fmt.Errorf("vm.allocate: %w", err)
					}
				}
				return fsWriteFile(c, task, svc, name, staging, data)
			})
			if _, ok := st.files[name]; !ok {
				st.names = append(st.names, name)
			}
			// The file now holds data whether or not the write was
			// acknowledged; a lost write shows as a failed read later.
			st.files[name] = data
		}
	}
}

func fsOpenReadAt(c *client, task *kern.Task, svc ipc.Name, name string, off uint64, want []byte) error {
	c.spans.begin(spOpen)
	h, err := fs.Open(task, svc, name)
	c.spans.end()
	if err != nil {
		return fmt.Errorf("fs.open %s: %w", name, err)
	}
	if h.Size != uint64(len(want)) {
		err = fmt.Errorf("fs.open %s: size %d, want %d", name, h.Size, len(want))
	}
	if err == nil {
		c.spans.begin(spReadAt)
		var got []byte
		got, err = h.ReadAt(off, fsReadAtLen)
		c.spans.end()
		if err != nil {
			err = fmt.Errorf("fs.read_at %s@%d: %w", name, off, err)
		} else {
			end := min(off+fsReadAtLen, uint64(len(want)))
			if err = compare(got, want[off:end]); err != nil {
				err = fmt.Errorf("fs.read_at %s@%d: %w", name, off, err)
			}
		}
	}
	c.spans.begin(spClose)
	cerr := h.Close()
	c.spans.end()
	if err == nil && cerr != nil {
		err = fmt.Errorf("fs.close %s: %w", name, cerr)
	}
	return err
}

func fsReadFile(c *client, task *kern.Task, svc ipc.Name, name string, want []byte) error {
	c.spans.begin(spReadFile)
	addr, size, err := fs.ReadFile(task, svc, name)
	c.spans.end()
	if err != nil {
		return fmt.Errorf("fs.read_file %s: %w", name, err)
	}
	if size != uint64(len(want)) {
		err = fmt.Errorf("fs.read_file %s: size %d, want %d", name, size, len(want))
	} else {
		c.spans.begin(spMapRead)
		var got []byte
		got, err = task.VMRead(addr, size)
		c.spans.end()
		if err != nil {
			err = fmt.Errorf("fs.map_read %s: %w", name, err)
		} else if err = compare(got, want); err != nil {
			err = fmt.Errorf("fs.read_file %s: %w", name, err)
		}
	}
	c.spans.begin(spVMDealloc)
	derr := task.VMDeallocate(addr, fs.MappedSize(task, size))
	c.spans.end()
	if err == nil && derr != nil {
		err = fmt.Errorf("vm.deallocate %s: %w", name, derr)
	}
	return err
}

func fsStat(c *client, task *kern.Task, svc ipc.Name, name string, want []byte) error {
	c.spans.begin(spStat)
	size, err := fs.Stat(task, svc, name)
	c.spans.end()
	if err != nil {
		return fmt.Errorf("fs.stat %s: %w", name, err)
	}
	if size != uint64(len(want)) {
		return fmt.Errorf("fs.stat %s: size %d, want %d", name, size, len(want))
	}
	return nil
}

func fsWriteFile(c *client, task *kern.Task, svc ipc.Name, name string, staging uint64, data []byte) error {
	c.spans.begin(spVMWrite)
	err := task.VMWrite(staging, data)
	c.spans.end()
	if err != nil {
		return fmt.Errorf("vm.write %s: %w", name, err)
	}
	c.spans.begin(spWriteFile)
	err = fs.WriteFile(task, svc, name, staging, uint64(len(data)))
	c.spans.end()
	if err != nil {
		return fmt.Errorf("fs.write_file %s: %w", name, err)
	}
	return nil
}

// compare reports the first byte where got differs from want.
func compare(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("read %d bytes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("byte %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

func (b *remoteFS) machine() ([]*kern.Kernel, *machine.Topology, *machine.Clock) {
	return b.kernels, b.topo, b.clock
}

func (b *remoteFS) env() map[string]string {
	return map[string]string{"iomgr_backend": "unused", "durable_fs": "unused"}
}

func (b *remoteFS) extraLogs() []*spanLog { return nil }

var fsMethods = []rpcMethod{
	{"Open", int32(fs.MsgOpen), spOpen},
	{"ReadAt", int32(fs.MsgReadAt), spReadAt},
	{"ReadFile", int32(fs.MsgReadFile), spReadFile},
	{"Stat", int32(fs.MsgStat), spStat},
	{"WriteFile", int32(fs.MsgWriteFile), spWriteFile},
}

var fsInlineMethods = []rpcMethod{
	{"Open", int32(fs.MsgOpen), spOpen},
	{"ReadAt", int32(fs.MsgReadAt), spReadAt},
	{"Stat", int32(fs.MsgStat), spStat},
}

// remoteFSTimings and remoteFSInlineTimings are the timings a traced
// run of each workload reports.
var (
	remoteFSTimings = append([]string{
		"netmsg.lookup_us", "fs.open_us", "fs.read_at_us", "fs.read_file_us", "fs.map_read_us",
		"fs.stat_us", "fs.write_file_us", "kern.new_task_us", "kern.terminate_us",
	}, rpcTimings(fsMethods)...)
	remoteFSInlineTimings = append([]string{
		"netmsg.lookup_us", "fs.open_us", "fs.read_at_us", "fs.stat_us", "kern.new_task_us", "kern.terminate_us",
	}, rpcTimings(fsInlineMethods)...)
)

func (b *remoteFS) layerMetrics(m metrics, w *window) {
	ops := float64(w.ops)
	sessions := float64(w.units["sessions"])
	o := w.d.obs
	m.setSpanP50("netmsg.lookup_us", spLookup, w)
	hits := sumCounters(o, ".netmsg.lookup_cache_hits")
	m.set("netmsg.cache_hit_ratio", ratio(hits, hits+sumCounters(o, ".netmsg.lookups_home")), "ratio")
	m.set("netmsg.control_msgs_per_session", ratio(sumCounters(o, ".control_msgs"), sessions), "count")
	m.set("netmsg.remote_msgs_per_op", float64(w.d.net.RemoteMessages)/ops, "count")
	m.set("netmsg.remote_bytes_per_op", float64(w.d.net.RemoteBytes)/ops, "bytes")
	m.set("netmsg.proxies_created_per_session", ratio(sumCounters(o, ".netmsg.proxies_created"), sessions), "count")
	m.setSpanP50("fs.open_us", spOpen, w)
	m.setSpanP50("fs.read_at_us", spReadAt, w)
	m.setSpanP50("fs.read_file_us", spReadFile, w)
	m.setSpanP50("fs.map_read_us", spMapRead, w)
	m.setSpanP50("fs.stat_us", spStat, w)
	m.setSpanP50("fs.write_file_us", spWriteFile, w)
	rpcMetrics(m, w, 0, b.mix.methods)
}

func (b *remoteFS) close() {
	if b.srv != nil {
		b.srv.Stop()
	}
	for _, k := range b.kernels {
		k.Shutdown()
	}
}
