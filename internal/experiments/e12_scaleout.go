package experiments

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/camelot"
	"repro/internal/fs"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/netmem"
	"repro/internal/netmsg"
	"repro/internal/obs"
	"repro/mach"
)

// e12Size is one point of the scaling curve: a host count and the
// session load offered to it.
type e12Size struct {
	hosts    int
	sessions int
	// interarrival is the real-time gap between session launches: the
	// generator is OPEN-LOOP — arrivals fire on this schedule whether
	// or not earlier sessions have finished, so queueing delay shows up
	// in the latency tail instead of throttling the offered load
	// (coordinated omission).
	interarrival time.Duration
}

// e12Sizes picks the scaling points from the E12_SCALE environment
// variable: "" is the full 16-64 host curve, "small" a CI-sized single
// point, "smoke" a minimal configuration for tests.
func e12Sizes() []e12Size {
	switch os.Getenv("E12_SCALE") {
	case "smoke":
		return []e12Size{{hosts: 4, sessions: 64, interarrival: 200 * time.Microsecond}}
	case "small":
		return []e12Size{{hosts: 8, sessions: 256, interarrival: 100 * time.Microsecond}}
	default:
		return []e12Size{
			{hosts: 16, sessions: 2048, interarrival: 50 * time.Microsecond},
			{hosts: 32, sessions: 2048, interarrival: 50 * time.Microsecond},
			{hosts: 64, sessions: 2048, interarrival: 50 * time.Microsecond},
		}
	}
}

// E12ScaleOut drives the distributed name registry at scale: 16-64
// simulated NORMA hosts, three real services (fs, netmem, camelot)
// checked in on the first three, and an open-loop generator launching
// thousands of short client sessions — each one a fresh task on a
// round-robin host that looks a service up by name and calls it through
// whatever the registry handed back. Lookup and RPC latency
// distributions come from the obs registry (p50/p99/p999), alongside
// per-host message counts, complex-wide control-message totals, and the
// proxy population. The claim under test: with home-node resolution a
// cold lookup costs one control round trip, so the lookup curve stays
// flat as the machine grows — where the bootstrap broadcast grew with
// every host added.
func E12ScaleOut() Table {
	t := Table{
		ID:         "E12",
		Title:      "scale-out registry under open-loop load (NORMA, mixed fs+netmem+camelot)",
		PaperClaim: "\"a network-wide kernel ... designed to support a distributed system of thousands of nodes\" — resolution cost must not grow with the machine (§3.2, ROADMAP item 3)",
		Headers: []string{"hosts", "sessions", "lookups",
			"lk-p50us", "lk-p99us", "lk-p999us",
			"rpc-p50us", "rpc-p99us", "rpc-p999us",
			"ctl-msgs", "sends/host", "proxies", "wall-ms"},
	}
	for _, size := range e12Sizes() {
		row, metrics := e12Run(size)
		t.Rows = append(t.Rows, row)
		t.Metrics = append(t.Metrics, metrics...)
	}
	t.Notes = append(t.Notes,
		"open-loop: sessions launch on a fixed schedule regardless of completions, so overload appears in the tail latencies, not in a reduced request count",
		"session mix per 10: 5 fs stat, 3 netmem attach, 2 camelot transactions; services live on hosts 0-2, clients round-robin on all hosts",
		"ctl-msgs is the complex-wide control total: registry lookups and pushes, plus the GC messages that found no data message to ride (third-party proxy registrations, idle batches of sender-count returns); flat lookup percentiles and near-flat ctl-msgs across 16->64 hosts are the distributed-directory win",
	)
	return t
}

// e12Run boots one complex, applies the load, and reports the row.
func e12Run(size e12Size) ([]string, []string) {
	kernels, _, clock := mach.Complex(size.hosts, machine.NORMA, 256, 4096)
	defer func() {
		for _, k := range kernels {
			k.Shutdown()
		}
	}()

	const (
		fsName  = "e12-fs"
		memName = "e12-mem"
		txName  = "e12-tx"
		segName = "e12-seg"
		memSize = 64 << 10
	)

	// fs service on host 0, seeded with one file the sessions stat.
	disk := machine.NewDisk(512, 4096, 0, clock)
	fsrv, err := fs.NewServer(kernels[0], disk)
	if err != nil {
		panic(err)
	}
	go fsrv.Run()
	defer fsrv.Stop()
	fsReg := kernels[0].NewTask()
	fsSvc, err := fsrv.Publish(fsReg)
	if err != nil {
		panic(err)
	}
	seed := []byte(strings.Repeat("mach scale-out ", 64))
	addr, err := fsReg.VMAllocate(0, uint64(len(seed)), true)
	if err != nil {
		panic(err)
	}
	if err := fsReg.VMWrite(addr, seed); err != nil {
		panic(err)
	}
	if err := fs.WriteFile(fsReg, fsSvc, "data.txt", addr, uint64(len(seed))); err != nil {
		panic(err)
	}
	e12CheckIn(fsReg, fsName, fsSvc)

	// netmem service on host 1 with one shared region.
	msrv, err := netmem.NewServer(kernels[1%size.hosts])
	if err != nil {
		panic(err)
	}
	go msrv.Run()
	defer msrv.Stop()
	if err := msrv.CreateRegion(memName+"-region", memSize); err != nil {
		panic(err)
	}
	memReg := kernels[1%size.hosts].NewTask()
	memSvc, err := msrv.Publish(memReg)
	if err != nil {
		panic(err)
	}
	// Pin the region for the whole run: netmem reaps a region when its
	// last attachment right dies, and the sessions churn through
	// attach-and-terminate.
	if _, _, err := netmem.AttachObject(memReg, memSvc, memName+"-region"); err != nil {
		panic(err)
	}
	e12CheckIn(memReg, memName, memSvc)

	// camelot disk manager on host 2 with one recoverable segment.
	ck := kernels[2%size.hosts]
	// The log disk must hold one WAL record per transactional write plus
	// two outcome records per transaction for the whole run.
	dm, err := camelot.NewDiskManager(ck,
		machine.NewDisk(512, 4096, 0, clock),
		machine.NewDisk(16384, 4096, 0, clock))
	if err != nil {
		panic(err)
	}
	go dm.Run()
	defer dm.Stop()
	txReg := ck.NewTask()
	txSvc, err := dm.Publish(txReg)
	if err != nil {
		panic(err)
	}
	if err := camelot.Open(txReg, txSvc).CreateSegment(segName, 16<<10); err != nil {
		panic(err)
	}
	e12CheckIn(txReg, txName, txSvc)

	lg := obs.LoadGen()
	before := obs.Default().Snapshot()
	simStart := clock.Now()
	wallStart := time.Now()

	// The open-loop generator: one goroutine per session, launched on
	// the interarrival schedule.
	var wg sync.WaitGroup
	for i := 0; i < size.sessions; i++ {
		next := wallStart.Add(time.Duration(i) * size.interarrival)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lg.Sessions.Inc()
			k := kernels[i%len(kernels)]
			switch {
			case i%10 < 5:
				e12SessionFS(k, lg, fsName)
			case i%10 < 8:
				e12SessionMem(k, lg, memName)
			default:
				e12SessionTx(k, lg, txName, segName, i)
			}
		}(i)
	}
	wg.Wait()

	wall := time.Since(wallStart)
	simElapsed := clock.Now() - simStart
	d := obs.Default().Snapshot().Diff(before)

	ctl := controlMsgs(d)
	var sends, proxies uint64
	for name, v := range d.Counters {
		if strings.HasSuffix(name, "ipc.sends") {
			sends += v
		}
	}
	for name, v := range d.Gauges {
		if strings.HasSuffix(name, "netmsg.proxies") && v > 0 {
			proxies += uint64(v)
		}
	}
	lk := d.Hists["loadgen.lookup_ns"]
	rp := d.Hists["loadgen.rpc_ns"]
	usOf := func(ns uint64) string { return fmt.Sprintf("%.1f", float64(ns)/1e3) }
	row := []string{
		fmt.Sprintf("%d", size.hosts),
		fmt.Sprintf("%d", size.sessions),
		fmt.Sprintf("%d", lk.Count),
		usOf(lk.P50()), usOf(lk.P99()), usOf(lk.P999()),
		usOf(rp.P50()), usOf(rp.P99()), usOf(rp.P999()),
		fmt.Sprintf("%d", ctl),
		fmt.Sprintf("%d", sends/uint64(size.hosts)),
		fmt.Sprintf("%d", proxies),
		fmt.Sprintf("%.0f", float64(wall)/float64(time.Millisecond)),
	}
	metrics := []string{fmt.Sprintf(
		"%d hosts: sessions=%d lookups=%d calls=%d errors=%d; home-lookups=%d cache-hits=%d invalidations=%d/%d; sim-elapsed=%sms",
		size.hosts,
		d.Counters["loadgen.sessions"], d.Counters["loadgen.lookups"],
		d.Counters["loadgen.calls"], d.Counters["loadgen.errors"],
		sumSuffix(d.Counters, "netmsg.lookups_home"),
		sumSuffix(d.Counters, "netmsg.lookup_cache_hits"),
		sumSuffix(d.Counters, "netmsg.invalidations_sent"),
		sumSuffix(d.Counters, "netmsg.invalidations_recv"),
		ms(simElapsed))}
	return row, metrics
}

// sumSuffix totals every counter whose name ends in suffix (the per-host
// families of the obs registry).
func sumSuffix(c map[string]uint64, suffix string) uint64 {
	var total uint64
	for name, v := range c {
		if strings.HasSuffix(name, suffix) {
			total += v
		}
	}
	return total
}

// e12CheckIn registers svc (a right in task's space) with the complex's
// name service.
func e12CheckIn(task *kern.Task, name string, svc ipc.Name) {
	boot, err := task.Kernel().NetMsg().Publish(task.Space)
	if err != nil {
		panic(err)
	}
	if err := netmsg.CheckIn(task.Space, boot, name, svc); err != nil {
		panic(err)
	}
}

// e12Lookup resolves name from task, timing the resolution.
func e12Lookup(task *kern.Task, lg *obs.LoadGenMetrics, name string) (ipc.Name, bool) {
	boot, err := task.Kernel().NetMsg().Publish(task.Space)
	if err != nil {
		lg.Errors.Inc()
		return 0, false
	}
	start := time.Now()
	svc, err := netmsg.LookUp(task.Space, boot, name)
	lg.LookupLatency.Record(int64(time.Since(start)))
	lg.Lookups.Inc()
	if err != nil {
		lg.Errors.Inc()
		return 0, false
	}
	return svc, true
}

// e12SessionFS is the 50% session: resolve the filesystem, stat the
// seeded file twice.
func e12SessionFS(k *kern.Kernel, lg *obs.LoadGenMetrics, name string) {
	task := k.NewTask()
	defer task.Terminate()
	svc, ok := e12Lookup(task, lg, name)
	if !ok {
		return
	}
	for i := 0; i < 2; i++ {
		start := time.Now()
		_, err := fs.Stat(task, svc, "data.txt")
		lg.CallLatency.Record(int64(time.Since(start)))
		lg.Calls.Inc()
		if err != nil {
			lg.Errors.Inc()
			return
		}
	}
}

// e12SessionMem is the 30% session: resolve the shared-memory server
// and attach its region's memory object.
func e12SessionMem(k *kern.Kernel, lg *obs.LoadGenMetrics, name string) {
	task := k.NewTask()
	defer task.Terminate()
	svc, ok := e12Lookup(task, lg, name)
	if !ok {
		return
	}
	start := time.Now()
	_, _, err := netmem.AttachObject(task, svc, name+"-region")
	lg.CallLatency.Record(int64(time.Since(start)))
	lg.Calls.Inc()
	if err != nil {
		lg.Errors.Inc()
	}
}

// e12SessionTx is the 20% session: resolve the camelot disk manager
// (through its generated stub client), attach the recoverable segment
// and commit one small transactional write.
func e12SessionTx(k *kern.Kernel, lg *obs.LoadGenMetrics, name, segName string, i int) {
	task := k.NewTask()
	defer task.Terminate()
	svc, ok := e12Lookup(task, lg, name)
	if !ok {
		return
	}
	c := camelot.Open(task, svc)
	start := time.Now()
	seg, err := c.Attach(segName)
	lg.CallLatency.Record(int64(time.Since(start)))
	lg.Calls.Inc()
	if err != nil {
		lg.Errors.Inc()
		return
	}
	tx := c.Begin()
	start = time.Now()
	err = tx.Write(seg, uint64((i%32)*64), []byte(fmt.Sprintf("session-%d", i)))
	if err == nil {
		err = tx.Commit()
	}
	lg.CallLatency.Record(int64(time.Since(start)))
	lg.Calls.Inc()
	if err != nil {
		lg.Errors.Inc()
		_ = tx.Abort()
	}
}
