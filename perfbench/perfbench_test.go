package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fs"
	"repro/mach"
)

// TestMain lets the test binary stand in for the benchmark executable
// when a smoke run re-executes itself as a child.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// runMain runs the benchmark's command line and returns its report and
// the decoded last line.
func runMain(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out strings.Builder
	if code := parentMain(append(args, "--out", t.TempDir()), &out); code != 0 {
		t.Fatalf("perfbench %v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return out.String(), res
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks that the last line carries every declared metric with its
// unit — or, for a run whose child crashed, that the crash is reported
// as failures with its site.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				report, res := runMain(t, "--workload", w.name, "--seed", "7", "--seconds", "0.5", "--trace", trace)
				if res.Attempted < 1 {
					t.Fatalf("attempted = %d", res.Attempted)
				}
				if strings.Contains(report, "CRASHED") {
					if res.Correct || res.Failed == 0 || !strings.Contains(report, ".go:") {
						t.Fatalf("crash not reported as failures with a site:\n%s", report)
					}
					t.Logf("%s crashed, as recorded: %s", w.name, firstLine(report, "CRASHED"))
					return
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
					} else if m.Unit != d.unit {
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
			})
		}
	}
}

// TestTracedRunMeasuresItsLayers checks a traced run before the layers a
// workload bypasses are filled in as 0: it must itself compute every
// per-layer metric of the layers it calls, and every timing named as its
// own, in µs.
func TestTracedRunMeasuresItsLayers(t *testing.T) {
	// Set by the parent from a pair of runs, not by a traced run.
	fromPairs := map[string]bool{"trace_overhead_pct": true, "attribution_gap_pct": true}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := runIsolated(runSpec{Workload: w.name, Seed: 7, Seconds: 0.5, Traced: true, OutDir: t.TempDir()})
			if r.crashed {
				t.Logf("%s crashed, as recorded: %s", w.name, r.cause)
				return
			}
			for _, d := range perLayer {
				if fromPairs[d.name] || w.bypasses(layerOf(d.name)) {
					continue
				}
				if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("metric %s = %+v (present %v), want unit %q", d.name, m, ok, d.unit)
				}
			}
			for _, n := range w.timings {
				if m, ok := r.Metrics[n]; !ok || m.Unit != "us" || m.Value == 0 {
					t.Errorf("timing %s = %+v (present %v), want a non-zero value in us", n, m, ok)
				}
			}
		})
	}
}

func firstLine(s, substr string) string {
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			return l
		}
	}
	return ""
}

// TestCorruptReadCountsAsFailure shows the checker at work on a real
// remote read: the same file read against its true contents passes, and
// against contents with one byte flipped is counted as a failed
// operation naming the byte.
func TestCorruptReadCountsAsFailure(t *testing.T) {
	b, err := setupRemoteFS(t.TempDir(), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	rf := b.(*remoteFS)
	c := &client{from: 0, to: int64(time.Hour), units: map[string]int64{}, base: time.Now()}
	if err := rf.newClient(c); err != nil {
		t.Fatal(err)
	}
	st := c.state.(*fsClient)
	task := st.kernel.NewTask()
	defer task.Terminate()
	svc, err := mach.NetMsgLookUp(task, fsService)
	if err != nil {
		t.Fatal(err)
	}
	name := rf.names[4] // an 8 KiB file: two pages
	want := rf.seeded[name]
	corrupt := append([]byte(nil), want...)
	corrupt[5000] ^= 0xff

	c.op(func() error { return fsReadFile(c, task, svc, name, want) })
	c.op(func() error { return fsReadFile(c, task, svc, name, corrupt) })
	if a, f := c.attempted.Load(), c.failed.Load(); a != 2 || f != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1 (errors: %v)", a, f, c.errs)
	}
	if len(c.errs) != 1 || !strings.Contains(c.errs[0], "byte 5000") {
		t.Fatalf("failure message %q does not name the corrupted byte", c.errs)
	}
	if _, err := fs.Stat(task, svc, name); err != nil {
		t.Fatalf("server unusable after the checks: %v", err)
	}
}

// TestSelfTime checks self time against a hand-built trace: a parent
// covering 100ns with children of 30ns and 10ns, one of them in another
// log (a data manager answering a client's fault).
func TestSelfTime(t *testing.T) {
	client := newSpanLog(1)
	mgr := newSpanLog(2)
	client.spans.push(span{name: spOp, start: 0, end: 100})
	client.spans.push(span{name: spVMRead, start: 10, end: 40, parent: spanID(1<<32 | 1)})
	mgr.spans.push(span{name: spDataRequest, start: 20, end: 30, parent: spanID(1<<32 | 2)})
	st := analyze([]*spanLog{client, mgr}, 0, 1000)
	for name, want := range map[spanName]int64{spOp: 70, spVMRead: 20, spDataRequest: 10} {
		if got := st[name].selfNS; got != want {
			t.Errorf("%s self time %d, want %d", name, got, want)
		}
	}
	layers := layerSelfNS(st)
	if layers["bench"]+layers["vm"]+layers["pager"] != 100 {
		t.Errorf("layer self times %v do not add up to the root span", layers)
	}
}

// TestCrashSite checks the panic site extraction on a trace shaped like
// the runtime's.
func TestCrashSite(t *testing.T) {
	stderr := []string{
		"panic: machine: bytes of invalid frame -1",
		"",
		"goroutine 42 [running]:",
		"repro/internal/machine.(*PhysMem).Bytes(...)",
		"\t/src/repo/internal/machine/phys.go:98",
		"repro/internal/vm.(*Map).faultLocked(0xc0001, 0x2000, 0x3)",
		"\t/src/repo/internal/vm/fault.go:164 +0x8f5",
	}
	got := crashSite(stderr, fmt.Errorf("exit status 2"))
	want := "panic: machine: bytes of invalid frame -1 at internal/machine/phys.go:98 <- internal/vm/fault.go:164"
	if got != want {
		t.Fatalf("crashSite = %q, want %q", got, want)
	}
}

// TestOutputOnlyInsideOutDir checks that a durable-tx run leaves its
// files under the output directory and removes its volumes.
func TestOutputOnlyInsideOutDir(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if code := parentMain([]string{"--workload", "durable-tx", "--seed", "2", "--seconds", "0.3", "--out", dir}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("durable directory %s left behind", filepath.Join(dir, e.Name()))
		}
	}
	if !strings.Contains(out.String(), "env durable_fs=") || !strings.Contains(out.String(), "env iomgr_backend=") {
		t.Errorf("environment record lacks the durable filesystem or iomgr backend:\n%s", out.String())
	}
}

// TestDeclaredMetrics checks that BENCHMARK.json declares exactly the
// metrics the last output line carries, with their units, in the same
// order.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		emitted  []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		var declared, emitted []string
		for _, d := range c.declared {
			declared = append(declared, d.Name+" "+d.Unit)
		}
		for _, d := range c.emitted {
			emitted = append(emitted, d.name+" "+d.unit)
		}
		if strings.Join(declared, ",") != strings.Join(emitted, ",") {
			t.Errorf("%s declares %v, the benchmark emits %v", c.what, declared, emitted)
		}
	}
}
