// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload (remote-fs, remote-fs-inline, paging or durable-tx)
// against the kernel's public APIs with closed-loop clients, checks
// every result it reads, and prints the end-to-end metrics (--trace 0)
// or the per-layer metrics of a separate traced run (--trace 1). Each
// run executes in a child process with a deadline, so a panic or hang
// is recorded as that run's failure with its site. See README.md.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload remote-fs --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv carries the run spec to a child process.
const childEnv = "PERFBENCH_CHILD"

// progressPrefix starts the progress lines a child writes to stderr.
const progressPrefix = "perfbench-progress "

// metricDef is a metric the last output line carries, with its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics the last output line carries
// with --trace 0 and --trace 1; BENCHMARK.json declares the same names
// and units in the same order. ops_per_s, p50_us, p99_us and
// cpu_us_per_op are printed by every run but not carried: over ten
// durable-tx runs they have spread by more than the largest bound a gate
// may use (see README.md).
var endToEnd = []metricDef{
	{"sim_us_per_op", "us"}, {"allocs_per_op", "count"}, {"max_rss_mb", "MB"}, {"setup_s", "s"},
}

var perLayer = []metricDef{
	{"trace_overhead_pct", "%"}, {"attributed_us_per_op", "us"}, {"attribution_gap_pct", "%"}, {"unattributed_pct", "%"},
	{"ipc.sends_per_op", "count"}, {"ipc.handoff_ratio", "ratio"}, {"ipc.queue_full_stalls", "count"}, {"ipc.queue_latency_us", "us"},
	{"netmsg.cache_hit_ratio", "ratio"}, {"netmsg.control_msgs_per_session", "count"}, {"netmsg.remote_msgs_per_op", "count"},
	{"netmsg.remote_bytes_per_op", "bytes"}, {"netmsg.proxies_created_per_session", "count"},
	{"vm.faults_per_op", "count"}, {"vm.pageins_per_op", "count"}, {"vm.pageouts_per_op", "count"}, {"vm.cow_faults_per_op", "count"},
	{"vm.reactivations_per_op", "count"}, {"vm.hit_ratio", "ratio"},
	{"pager.faults_cold", "count"}, {"pager.faults_warm", "count"}, {"pager.evictions", "count"}, {"pager.writebacks", "count"},
	{"camelot.wal_appends_per_tx", "count"}, {"camelot.fsyncs_per_commit", "count"},
	{"iomgr.submitted_per_tx", "count"}, {"iomgr.ops_per_batch", "count"}, {"iomgr.bytes_written_per_tx", "bytes"}, {"iomgr.errors", "count"},
	{"go.gc_cycles_per_kop", "count"}, {"go.gc_pause_p99_us", "us"},
}

// layerOf is the layer a metric belongs to: its name up to the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// childMain runs one measurement in this process and prints its result
// as JSON on the last stdout line.
func childMain(specJSON string) int {
	var spec runSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: bad spec:", err)
		return 2
	}
	res, err := runChild(spec, func(a, f int64, elapsed time.Duration) {
		fmt.Fprintf(os.Stderr, "%s%d %d %d\n", progressPrefix, a, f, elapsed.Nanoseconds())
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func parentMain(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: remote-fs, remote-fs-inline, paging, durable-tx, or all of them in turn")
	seed := fl.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fl.Float64("seconds", 10, "length of the measured window")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for durable files and spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if _, ok := findWorkload(names[0]); !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload remote-fs|remote-fs-inline|paging|durable-tx|all, --seconds > 0 and --trace 0|1")
		return 2
	}
	outDir, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(outDir, 0o777)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// With several workloads, each prints its own result line; the last
	// line is the last workload's.
	for _, n := range names {
		w, _ := findWorkload(n)
		spec := runSpec{Workload: n, Seed: *seed, Seconds: *seconds, OutDir: outDir}
		line, err := json.Marshal(runWorkload(stdout, spec, w, *trace))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

// overheadPairs is how many untraced/traced run pairs a traced
// invocation makes; trace_overhead_pct is the median of their gaps.
const overheadPairs = 3

// runWorkload runs one workload (and, with trace 1, its traced runs),
// prints its report and returns its result line.
func runWorkload(stdout io.Writer, spec runSpec, w workload, trace int) result {
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d clients %d (closed loop)\n", spec.Workload, spec.Seed, spec.Seconds, trace, nClients)
	untraced := runIsolated(spec)
	report(stdout, "untraced", untraced)
	res := result{Attempted: untraced.Attempted, Failed: untraced.Failed}
	if trace == 0 {
		res.Metrics = pick(untraced.Metrics, endToEnd)
	} else {
		all := tracedRuns(stdout, spec, w, untraced, &res)
		fmt.Fprintln(stdout, "per-layer metrics (first traced run):")
		for _, l := range all.lines() {
			fmt.Fprintln(stdout, "  "+l)
		}
		res.Metrics = pick(all, perLayer)
	}
	res.Correct = res.Failed == 0
	return res
}

// tracedRuns makes overheadPairs pairs of an untraced and a traced run,
// alternating which of the two runs first; first is the first pair's
// untraced run, already made. It returns the first traced run's metrics
// with the layers the workload bypasses filled in as 0, and the medians
// over the pairs of the tracing overhead and of the gap between the
// traced run's attributed time and the untraced per-op time. It stops at
// the first crash.
func tracedRuns(stdout io.Writer, spec runSpec, w workload, first isolated, res *result) metrics {
	tspec := spec
	tspec.Traced = true
	run := func(s runSpec, phase string) isolated {
		r := runIsolated(s)
		report(stdout, phase, r)
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		return r
	}
	var traced isolated
	var overhead, gap []float64
	for i := 0; i < overheadPairs; i++ {
		var u, t isolated
		switch {
		case i == 0:
			ws := tspec
			ws.WriteSpans = true // the spans of the run the metrics come from
			u, t = first, run(ws, "traced")
			traced = t
		case i%2 == 1:
			t = run(tspec, "traced")
			u = run(spec, "untraced")
		default:
			u = run(spec, "untraced")
			t = run(tspec, "traced")
		}
		if u.crashed || t.crashed {
			break
		}
		uo, to := u.Metrics["ops_per_s"].Value, t.Metrics["ops_per_s"].Value
		overhead = append(overhead, 100*(uo-to)/uo)
		uc := u.Metrics["client_us_per_op"].Value
		gap = append(gap, 100*(t.Metrics["attributed_us_per_op"].Value-uc)/uc)
		fmt.Fprintf(stdout, "pair %d: untraced %.0f ops/s, traced %.0f ops/s, overhead %.1f%%, attribution gap %.1f%%\n", i, uo, to, overhead[len(overhead)-1], gap[len(gap)-1])
	}
	all := traced.Metrics
	if traced.crashed || all == nil {
		return metrics{}
	}
	if len(overhead) > 0 {
		all.set("trace_overhead_pct", median(overhead), "%")
		all.set("attribution_gap_pct", median(gap), "%")
	}
	for _, d := range perLayer {
		if _, ok := all[d.name]; !ok && w.bypasses(layerOf(d.name)) {
			all.set(d.name, 0, d.unit)
		}
	}
	return all
}

// pick returns the named metrics of all that are present.
func pick(all metrics, defs []metricDef) metrics {
	out := metrics{}
	for _, d := range defs {
		if v, ok := all[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}

// isolated is one child run as the parent saw it.
type isolated struct {
	childResult
	crashed bool
	cause   string // panic or hang, with its site
}

// childTimeout bounds one child run: its setups, warm-up, window and
// the trace write-out, with room for a loaded machine.
func childTimeout(seconds float64) time.Duration {
	return time.Duration(2*seconds*float64(time.Second)) + 40*time.Second
}

// runIsolated runs spec in a child process of this executable. A child
// that panics, exits early or outlives its deadline is reported as a
// crash: every operation it would still have run counts as failed.
func runIsolated(spec runSpec) isolated {
	notStarted := func(err error) isolated {
		return isolated{childResult: childResult{Attempted: 1, Failed: 1}, crashed: true, cause: "child not started: " + err.Error()}
	}
	exe, err := os.Executable()
	if err != nil {
		return notStarted(err)
	}
	js, err := json.Marshal(spec)
	if err != nil {
		return notStarted(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout(spec.Seconds))
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(js))
	var stdout strings.Builder
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return notStarted(err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return notStarted(err)
	}
	var last progress
	var tail []string // stderr lines other than progress, for the panic site
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := parseProgress(line); ok {
			last = p
			continue
		}
		if len(tail) < 400 {
			tail = append(tail, line)
		}
	}
	werr := cmd.Wait()
	r := isolated{}
	if ctx.Err() != nil {
		r.crashed, r.cause = true, fmt.Sprintf("hang: killed after %s", time.Since(start).Round(time.Second))
	} else if werr != nil {
		r.crashed, r.cause = true, crashSite(tail, werr)
	} else if err := json.Unmarshal([]byte(lastLine(stdout.String())), &r.childResult); err != nil {
		r.crashed, r.cause = true, "unreadable child result: "+err.Error()
	}
	if r.crashed {
		// The child's own count stops at its last progress report; the
		// operations it would have run in the rest of its run are lost.
		planned := warmup(spec.Seconds) + time.Duration(spec.Seconds*float64(time.Second))
		lost := int64(1)
		if last.elapsed > 0 && last.elapsed < planned {
			rate := float64(last.attempted) / last.elapsed.Seconds()
			lost = max(1, int64(rate*(planned-last.elapsed).Seconds()))
		}
		r.Attempted = last.attempted + lost
		r.Failed = last.failed + lost
		r.Metrics = metrics{}
		r.Metrics.set("fail_ratio", float64(r.Failed)/float64(r.Attempted), "ratio")
		if ps := cmd.ProcessState; ps != nil {
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
				r.Metrics.set("max_rss_mb", float64(ru.Maxrss)/1024, "MB")
			}
		}
	}
	return r
}

type progress struct {
	attempted, failed int64
	elapsed           time.Duration
}

func parseProgress(line string) (progress, bool) {
	rest, ok := strings.CutPrefix(line, progressPrefix)
	if !ok {
		return progress{}, false
	}
	f := strings.Fields(rest)
	if len(f) != 3 {
		return progress{}, false
	}
	a, e1 := strconv.ParseInt(f[0], 10, 64)
	fl, e2 := strconv.ParseInt(f[1], 10, 64)
	ns, e3 := strconv.ParseInt(f[2], 10, 64)
	if e1 != nil || e2 != nil || e3 != nil {
		return progress{}, false
	}
	return progress{a, fl, time.Duration(ns)}, true
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// crashSite extracts the panic (or fatal error) message and the first
// frames of the panicking goroutine outside the Go runtime, with file
// paths cut to the repository-relative part.
func crashSite(stderr []string, werr error) string {
	msg := ""
	i := 0
	for ; i < len(stderr); i++ {
		l := stderr[i]
		if strings.HasPrefix(l, "panic: ") || strings.HasPrefix(l, "fatal error: ") {
			msg = l
			break
		}
	}
	if msg == "" {
		if len(stderr) > 0 {
			return fmt.Sprintf("exited (%v): %s", werr, stderr[len(stderr)-1])
		}
		return fmt.Sprintf("exited (%v)", werr)
	}
	var frames []string
	for ; i+1 < len(stderr) && len(frames) < 3; i++ {
		fn, loc := stderr[i], strings.TrimSpace(stderr[i+1])
		if !strings.HasPrefix(stderr[i+1], "\t") || strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "panic(") {
			continue
		}
		if j := strings.Index(loc, "/internal/"); j >= 0 {
			loc = loc[j+1:]
		} else if j := strings.Index(loc, "/perfbench/"); j >= 0 {
			loc = loc[j+1:]
		}
		if j := strings.Index(loc, " +0x"); j >= 0 {
			loc = loc[:j]
		}
		frames = append(frames, loc)
		i++
	}
	return msg + " at " + strings.Join(frames, " <- ")
}

// report prints one child run: its checks, failures and every metric.
func report(w io.Writer, phase string, r isolated) {
	fmt.Fprintf(w, "%s run: attempted %d failed %d", phase, r.Attempted, r.Failed)
	if r.crashed {
		fmt.Fprintf(w, " CRASHED: %s", r.cause)
	}
	fmt.Fprintln(w)
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  failure:", e)
	}
	keys := make([]string, 0, len(r.Env))
	for k := range r.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  env %s=%s\n", k, r.Env[k])
	}
	for i, sw := range r.Subs {
		fmt.Fprintf(w, "  sub-window %d: %s\n", i, sw)
	}
	if phase == "untraced" {
		for _, l := range r.Metrics.lines() {
			fmt.Fprintln(w, "  "+l)
		}
	}
}
