package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/kern"
	"repro/internal/machine"
)

// nClients is the closed-loop client count: each client waits for its
// reply before it sends its next request.
const nClients = 2

// setupReps is how many times a run boots its workload; setup_s is the
// median, and the last boot is the one measured. A boot takes a few
// milliseconds, so many of them cost little and steady the median.
const setupReps = 51

// heldOutSeed was never run while the benchmark was written; later
// performance claims are checked on it.
const heldOutSeed = 90210

// bench is one booted instance of a workload.
type bench interface {
	// newClient prepares client c's private state (its tasks, files,
	// pages or segment slice) before the run starts.
	newClient(c *client) error
	// step runs one closed-loop unit of client c: an operation, or a
	// session of several.
	step(c *client)
	// machine returns what the run diffs counters of.
	machine() ([]*kern.Kernel, *machine.Topology, *machine.Clock)
	// env records workload-specific facts (the iomgr backend, the
	// filesystem of the durable directory).
	env() map[string]string
	// extraLogs returns span logs kept by the workload's own goroutines
	// (a data manager's handler).
	extraLogs() []*spanLog
	// layerMetrics adds the workload's per-layer metrics.
	layerMetrics(m metrics, r *window)
	close()
}

// workload boots a bench under dir from seed.
type workload struct {
	name  string
	setup func(dir string, seed uint64, traced bool) (bench, error)
	// bypassed are the layers the workload never calls; their per-layer
	// metrics read 0 on it.
	bypassed []string
	// timings are the per-layer timings only this workload exercises;
	// a traced run prints them, in µs, beside the per-layer metrics.
	timings []string
}

// workloads are described, with the reason each was chosen, at the top
// of their files and in README.md.
var workloads = []workload{
	{"remote-fs", setupRemoteFS, []string{"camelot", "iomgr"}, remoteFSTimings},
	{"remote-fs-inline", setupRemoteFSInline, []string{"camelot", "iomgr"}, remoteFSInlineTimings},
	{"paging", setupPaging, []string{"netmsg", "camelot", "iomgr"}, pagingTimings},
	{"durable-tx", setupDurableTx, []string{"netmsg"}, durableTxTimings},
}

func (w workload) bypasses(layer string) bool {
	for _, l := range w.bypassed {
		if l == layer {
			return true
		}
	}
	return false
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// client is one closed-loop client's bookkeeping. Only its own goroutine
// writes it, apart from the atomics the progress reporter reads.
type client struct {
	id    int
	rng   *rand.Rand
	spans *spanLog // nil in an untraced run
	base  time.Time
	// from and to bound the measured window, in ns since base.
	from, to int64

	attempted atomic.Int64
	failed    atomic.Int64
	errs      []string
	samples   offHeap[sample]  // the ops inside the window
	units     map[string]int64 // workload units (sessions, commits) inside the window
	groups    uint64
	group     uint64 // the current session or transaction

	state any // the workload's per-client state
}

// sample is one operation's exact latency and completion time, in ns
// (the time since the client's base).
type sample struct{ lat, at int64 }

// maxErrs bounds the failure messages a client keeps.
const maxErrs = 8

// op runs one operation: it times fn (which also checks what it read),
// counts it and keeps its latency when it fell inside the window.
func (c *client) op(fn func() error) {
	c.spans.begin(spOp)
	start := time.Since(c.base)
	err := fn()
	end := time.Since(c.base)
	c.spans.end()
	c.record(int64(start), int64(end), err)
}

func (c *client) record(start, end int64, err error) {
	c.attempted.Add(1)
	if err != nil {
		c.failed.Add(1)
		if len(c.errs) < maxErrs {
			c.errs = append(c.errs, err.Error())
		}
	}
	if start >= c.from && end <= c.to {
		c.samples.push(sample{lat: end - start, at: end})
	}
}

// fail counts n operations that could not be attempted because an
// earlier step of their session failed.
func (c *client) fail(n int, err error) {
	for i := 0; i < n; i++ {
		c.record(0, 0, err)
	}
}

// unit counts one workload unit (a session, a commit) inside the window.
func (c *client) unit(kind string) {
	if now := int64(time.Since(c.base)); now >= c.from && now <= c.to {
		c.units[kind]++
	}
}

// newGroup starts a session or transaction: spans until the next call
// share its ID.
func (c *client) newGroup() {
	c.groups++
	c.group = uint64(c.id+1)<<40 | c.groups
	c.spans.setGroup(c.group)
}

// runSpec is what the parent asks one child process to run.
type runSpec struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// WriteSpans asks a traced run to write its spans out.
	WriteSpans bool   `json:"write_spans"`
	OutDir     string `json:"out_dir"`
}

// childResult is what a child reports back on its last stdout line.
type childResult struct {
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors"`
	Metrics   metrics           `json:"metrics"`
	Env       map[string]string `json:"env"`
	Subs      []string          `json:"subs"` // per sub-window throughput and latency
}

// window is the measured interval of a run and what happened in it.
type window struct {
	ops     int64
	seconds float64
	d       counters
	units   map[string]int64
	spans   map[spanName]*spanStats // nil when untraced
}

// warmup is the untimed lead-in of a run: caches fill and lazy set-up
// finishes before the window opens. Its operations are still checked.
func warmup(seconds float64) time.Duration {
	w := time.Duration(seconds * float64(time.Second) / 10)
	if w > time.Second {
		w = time.Second
	}
	return w
}

// runChild boots the workload setupReps times, runs the last boot with
// nClients closed-loop clients and returns what it measured.
func runChild(spec runSpec, progress func(attempted, failed int64, elapsed time.Duration)) (*childResult, error) {
	w, ok := findWorkload(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if err := os.MkdirAll(spec.OutDir, 0o777); err != nil {
		return nil, err
	}
	var b bench
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(spec.OutDir, fmt.Sprintf("%s-%d-%d", spec.Workload, os.Getpid(), i))
		runtime.GC() // each boot starts from the same heap, not the last one's garbage
		t0 := time.Now()
		nb, err := w.setup(dir, spec.Seed, spec.Traced)
		if err != nil {
			return nil, fmt.Errorf("setup %s: %w", spec.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			nb.close()
		} else {
			b = nb
		}
	}
	defer b.close()

	warm := warmup(spec.Seconds)
	from := warm
	to := warm + time.Duration(spec.Seconds*float64(time.Second))
	clients := make([]*client, nClients)
	for i := range clients {
		c := &client{
			id:    i,
			rng:   rand.New(rand.NewPCG(spec.Seed, uint64(i)+1)),
			from:  int64(from),
			to:    int64(to),
			units: make(map[string]int64),
		}
		if spec.Traced {
			c.spans = newSpanLog(i + 1)
		}
		if err := b.newClient(c); err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		clients[i] = c
	}
	base := time.Now()
	for _, c := range clients {
		c.base = base
		if c.spans != nil {
			c.spans.base = base
		}
	}
	for _, l := range b.extraLogs() {
		l.base = base
	}

	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Since(c.base) < to {
				b.step(c)
			}
		}(c)
	}
	stop := make(chan struct{})
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var a, f int64
				for _, c := range clients {
					a += c.attempted.Load()
					f += c.failed.Load()
				}
				progress(a, f, time.Since(base))
			}
		}
	}()

	kernels, topo, clock := b.machine()
	time.Sleep(time.Until(base.Add(from)))
	before := readCounters(kernels, topo, clock)
	time.Sleep(time.Until(base.Add(to)))
	after := readCounters(kernels, topo, clock)
	// Peak RSS up to the end of the window: the result computation that
	// follows scales with the operation count and is not the system's.
	var ru syscall.Rusage
	rssErr := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	wg.Wait()
	close(stop)
	pwg.Wait()

	res := &childResult{Env: b.env(), Metrics: metrics{}}
	win := &window{seconds: (to - from).Seconds(), d: diff(after, before), units: map[string]int64{}}
	// The window is cut into sub-windows of about a second; throughput
	// and latency percentiles are the medians over them, so a burst of
	// load from outside the benchmark moves one sub-window, not the run.
	nsub := max(1, int(win.seconds))
	subLen := (to - from) / time.Duration(nsub)
	subLat := make([][]int64, nsub)
	var lat []int64
	for _, c := range clients {
		res.Attempted += c.attempted.Load()
		res.Failed += c.failed.Load()
		res.Errors = append(res.Errors, c.errs...)
		for i := 0; i < c.samples.len(); i++ {
			s := c.samples.at(i)
			lat = append(lat, s.lat)
			k := min(nsub-1, int((s.at-int64(from))/int64(subLen)))
			subLat[k] = append(subLat[k], s.lat)
		}
		c.samples.free()
		for k, v := range c.units {
			win.units[k] += v
		}
	}
	win.ops = int64(len(lat))
	if win.ops == 0 {
		return nil, fmt.Errorf("no operation completed inside the %.1fs window", win.seconds)
	}
	var tput, p50, p99 []float64
	for _, sl := range subLat {
		if len(sl) == 0 {
			tput = append(tput, 0)
			continue
		}
		sortInts(sl)
		tput = append(tput, float64(len(sl))/subLen.Seconds())
		p50 = append(p50, float64(quantile(sl, 0.50))/1e3)
		p99 = append(p99, float64(quantile(sl, 0.99))/1e3)
		res.Subs = append(res.Subs, fmt.Sprintf("%.0f/s p50 %.1fus p99 %.0fus", tput[len(tput)-1], p50[len(p50)-1], p99[len(p99)-1]))
	}
	sortInts(lat)

	m := res.Metrics
	ops := float64(win.ops)
	m.set("ops_per_s", median(tput), "1/s")
	m.set("p50_us", median(p50), "us")
	m.set("p99_us", median(p99), "us")
	m.set("p999_us", float64(quantile(lat, 0.999))/1e3, "us")
	m.set("latency_samples", ops, "count")
	m.set("sub_windows", float64(nsub), "count")
	m.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	m.set("sim_us_per_op", float64(win.d.simNS)/1e3/ops, "us")
	m.set("allocs_per_op", float64(win.d.mallocs)/ops, "count")
	m.set("cpu_us_per_op", float64(win.d.cpuNS)/1e3/ops, "us")
	m.set("setup_s", median(setups), "s")
	if rssErr == nil {
		m.set("max_rss_mb", float64(ru.Maxrss)/1024, "MB")
	}
	m.set("client_us_per_op", nClients*win.seconds*1e6/ops, "us")

	if spec.Traced {
		logs := append([]*spanLog(nil), b.extraLogs()...)
		for _, c := range clients {
			logs = append(logs, c.spans)
		}
		win.spans = analyze(logs, int64(from), int64(to))
		layerMetrics(m, win)
		b.layerMetrics(m, win)
		if spec.WriteSpans {
			path := filepath.Join(spec.OutDir, fmt.Sprintf("spans-%s-seed%d.tsv", spec.Workload, spec.Seed))
			if err := writeSpans(path, logs); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			res.Env["spans_file"] = path
		}
	}
	res.Env["seed"] = fmt.Sprint(spec.Seed)
	res.Env["heldout_seed"] = fmt.Sprint(heldOutSeed)
	res.Env["go_version"] = runtime.Version()
	res.Env["gomaxprocs"] = fmt.Sprint(runtime.GOMAXPROCS(0))
	res.Env["numcpu"] = fmt.Sprint(runtime.NumCPU())
	res.Env["nproc"] = fmt.Sprint(nClients)
	res.Env["warmup_s"] = fmt.Sprint(warm.Seconds())
	return res, nil
}
