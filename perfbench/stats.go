package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/vm"
)

// quantile returns the nearest-rank q-quantile of ascending samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortInts(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// median returns the median of xs (the mean of the middle two for an
// even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is everything the program already exports that a run diffs
// across its measured window: the obs registry, vm_statistics of every
// kernel, the interconnect's traffic counters and the Go runtime's.
type counters struct {
	obs     obs.Snapshot
	vm      vm.Statistics
	net     machine.NetStats
	mallocs uint64
	numGC   uint32
	simNS   int64
	cpuNS   int64 // user and system CPU time of the process
}

func readCounters(kernels []*kern.Kernel, topo *machine.Topology, clock *machine.Clock) counters {
	var c counters
	c.obs = obs.Default().Snapshot()
	for _, k := range kernels {
		s := k.Statistics()
		c.vm.Faults += s.Faults
		c.vm.ZeroFills += s.ZeroFills
		c.vm.CowFaults += s.CowFaults
		c.vm.Pageins += s.Pageins
		c.vm.Pageouts += s.Pageouts
		c.vm.Reactivations += s.Reactivations
		c.vm.Lookups += s.Lookups
		c.vm.Hits += s.Hits
	}
	c.net = topo.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.numGC = ms.NumGC
	c.simNS = int64(clock.Now())
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return c
}

// diff is the activity between two counter readings.
func diff(after, before counters) counters {
	return counters{
		obs: after.obs.Diff(before.obs),
		vm: vm.Statistics{
			Faults:        after.vm.Faults - before.vm.Faults,
			ZeroFills:     after.vm.ZeroFills - before.vm.ZeroFills,
			CowFaults:     after.vm.CowFaults - before.vm.CowFaults,
			Pageins:       after.vm.Pageins - before.vm.Pageins,
			Pageouts:      after.vm.Pageouts - before.vm.Pageouts,
			Reactivations: after.vm.Reactivations - before.vm.Reactivations,
			Lookups:       after.vm.Lookups - before.vm.Lookups,
			Hits:          after.vm.Hits - before.vm.Hits,
		},
		net: machine.NetStats{
			LocalMessages:  after.net.LocalMessages - before.net.LocalMessages,
			RemoteMessages: after.net.RemoteMessages - before.net.RemoteMessages,
			RemoteBytes:    after.net.RemoteBytes - before.net.RemoteBytes,
		},
		mallocs: after.mallocs - before.mallocs,
		numGC:   after.numGC - before.numGC,
		simNS:   after.simNS - before.simNS,
		cpuNS:   after.cpuNS - before.cpuNS,
	}
}

// sumCounters totals every obs counter whose name ends in suffix (the
// per-host families).
func sumCounters(s obs.Snapshot, suffix string) float64 {
	var n uint64
	for name, v := range s.Counters {
		if strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return float64(n)
}

// mergeHists merges every obs histogram whose name ends in suffix.
func mergeHists(s obs.Snapshot, suffix string) obs.HistSnapshot {
	var m obs.HistSnapshot
	for name, h := range s.Hists {
		if strings.HasSuffix(name, suffix) {
			for i, n := range h.Buckets {
				m.Buckets[i] += n
			}
			m.Count += h.Count
			m.Sum += h.Sum
		}
	}
	return m
}

// gcPauseP99NS is the exact 99th percentile of the stop-the-world
// pauses of the last n collections (the runtime keeps the last 256).
func gcPauseP99NS(n uint32) float64 {
	var st debug.GCStats
	debug.ReadGCStats(&st)
	p := st.Pause
	if int(n) < len(p) {
		p = p[:n]
	}
	ns := make([]int64, len(p))
	for i, d := range p {
		ns[i] = int64(d)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return float64(quantile(ns, 0.99))
}

// fsTypeOf names the filesystem holding path.
func fsTypeOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}
