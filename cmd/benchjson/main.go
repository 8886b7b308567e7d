// Command benchjson turns `go test -bench` output into the committed
// benchmark trajectory and gates CI on it.
//
// Two subcommands:
//
//	go test -bench . -benchmem ./... | benchjson emit -dir .
//	    Parses benchmark lines from stdin and writes the next
//	    BENCH_<n>.json in -dir (schema below). Prints the path.
//
//	benchjson diff [-dir .] [OLD.json NEW.json]
//	    Compares two trajectory points — by default the two
//	    highest-numbered BENCH_<n>.json files in -dir — and exits 1 if
//	    a pinned fast-path benchmark regressed: >15% ns/op (tunable
//	    with -max-regress) or ANY increase in allocs/op. Non-pinned
//	    benchmarks are reported but never gate.
//
// Schema (mach-bench/v1):
//
//	{
//	  "schema": "mach-bench/v1",
//	  "go_version": "go1.22.x",
//	  "gomaxprocs": 1,
//	  "benchmarks": [
//	    {"package": "repro", "name": "BenchmarkIPCSend",
//	     "iterations": 200000, "ns_per_op": 244.2, "bytes_per_op": 1,
//	     "allocs_per_op": 0, "msgs_per_sec": 0, "gomaxprocs": 1}, ...
//	  ]
//	}
//
// "name" has the harness's -<procs> suffix stripped; a benchmark's
// GOMAXPROCS lives in the "gomaxprocs" field instead (parsed from the
// suffix or from a "gomaxprocs=N" sub-benchmark component), so the same
// benchmark diffs cleanly across machines with different core counts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark result — one line of `go test -bench` output.
type Bench struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	MsgsPerSec  float64 `json:"msgs_per_sec,omitempty"`
	GoMaxProcs  int     `json:"gomaxprocs"`
}

// File is one trajectory point: every benchmark from one `make bench`.
type File struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Benchmarks []Bench `json:"benchmarks"`
}

const schemaID = "mach-bench/v1"

// pinned names the fast-path benchmarks whose latency and allocation
// counts gate CI. Keys are "package/name" after suffix stripping.
var pinned = []string{
	"repro/BenchmarkIPCSend",
	"repro/BenchmarkIPCReceive",
	"repro/internal/rpc/BenchmarkRPCRoundTrip/pooled-reply-port",
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "emit":
		runEmit(os.Args[2:])
	case "diff":
		runDiff(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchjson emit -dir DIR  (bench output on stdin)")
	fmt.Fprintln(os.Stderr, "       benchjson diff [-dir DIR] [OLD.json NEW.json]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

// --- emit -------------------------------------------------------------------

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// procsSuffix matches the -<procs> suffix the harness appends when
// GOMAXPROCS > 1. At GOMAXPROCS 1 there is no suffix, so a benchmark
// name that itself ends in -<digits> would be misread as a proc count:
// name sub-benchmarks accordingly ("batched16", not "batched-16").
var procsSuffix = regexp.MustCompile(`-(\d+)$`)
var procsComponent = regexp.MustCompile(`(?:^|/)gomaxprocs=(\d+)(?:/|$)`)

func runEmit(argv []string) {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory holding BENCH_<n>.json files")
	_ = fs.Parse(argv)
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}

	out := File{Schema: schemaID, GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so logs keep the raw output
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b, err := parseBench(pkg, m, out.GoMaxProcs)
		if err != nil {
			fatal(fmt.Errorf("parsing %q: %w", line, err))
		}
		out.Benchmarks = append(out.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(out.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}
	n := nextIndex(*dir)
	path := filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", n))
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks)\n", path, len(out.Benchmarks))
}

func parseBench(pkg string, m []string, defaultProcs int) (Bench, error) {
	name := m[1]
	procs := defaultProcs
	if sm := procsSuffix.FindStringSubmatch(name); sm != nil {
		procs, _ = strconv.Atoi(sm[1])
		name = name[:len(name)-len(sm[0])]
	}
	if sm := procsComponent.FindStringSubmatch(name); sm != nil {
		procs, _ = strconv.Atoi(sm[1])
	}
	iters, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return Bench{}, err
	}
	b := Bench{Package: pkg, Name: name, Iterations: iters, GoMaxProcs: procs}
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, fmt.Errorf("metric value %q: %w", fields[i], err)
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "msgs/s":
			b.MsgsPerSec = v
		}
	}
	return b, nil
}

// --- trajectory files -------------------------------------------------------

var benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// indices returns the sorted BENCH_<n>.json indices present in dir.
func indices(dir string) []int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		fatal(err)
	}
	var ns []int
	for _, e := range ents {
		if m := benchFile.FindStringSubmatch(e.Name()); m != nil {
			n, _ := strconv.Atoi(m[1])
			ns = append(ns, n)
		}
	}
	sort.Ints(ns)
	return ns
}

func nextIndex(dir string) int {
	ns := indices(dir)
	if len(ns) == 0 {
		return 1
	}
	return ns[len(ns)-1] + 1
}

func load(path string) File {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if f.Schema != schemaID {
		fatal(fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schemaID))
	}
	return f
}

// --- diff -------------------------------------------------------------------

func runDiff(argv []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory holding BENCH_<n>.json files")
	maxRegress := fs.Float64("max-regress", 0.15, "max fractional ns/op regression on pinned benchmarks")
	_ = fs.Parse(argv)

	var oldPath, newPath string
	switch fs.NArg() {
	case 2:
		oldPath, newPath = fs.Arg(0), fs.Arg(1)
	case 0:
		ns := indices(*dir)
		if len(ns) < 2 {
			fmt.Println("benchjson: fewer than two trajectory points; nothing to diff")
			return
		}
		oldPath = filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", ns[len(ns)-2]))
		newPath = filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", ns[len(ns)-1]))
	default:
		usage()
	}
	oldF, newF := load(oldPath), load(newPath)
	oldBy := index(oldF)
	newBy := index(newF)
	fmt.Printf("benchjson: %s -> %s\n", oldPath, newPath)

	failures := 0
	isPinned := map[string]bool{}
	for _, p := range pinned {
		isPinned[p] = true
	}
	// Pinned gates first: missing, slower, or allocating more all fail.
	for _, key := range pinned {
		o, okO := oldBy[key]
		n, okN := newBy[key]
		switch {
		case !okN:
			fmt.Printf("FAIL %-60s missing from new trajectory\n", key)
			failures++
		case !okO:
			fmt.Printf("new  %-60s %.0f ns/op %.0f allocs/op (no baseline)\n", key, n.NsPerOp, n.AllocsPerOp)
		default:
			delta := 0.0
			if o.NsPerOp > 0 {
				delta = (n.NsPerOp - o.NsPerOp) / o.NsPerOp
			}
			switch {
			case n.AllocsPerOp > o.AllocsPerOp:
				fmt.Printf("FAIL %-60s allocs/op %.0f -> %.0f (any increase fails)\n",
					key, o.AllocsPerOp, n.AllocsPerOp)
				failures++
			case delta > *maxRegress:
				fmt.Printf("FAIL %-60s ns/op %.0f -> %.0f (%+.1f%%, limit %+.0f%%)\n",
					key, o.NsPerOp, n.NsPerOp, 100*delta, 100**maxRegress)
				failures++
			default:
				fmt.Printf("ok   %-60s ns/op %.0f -> %.0f (%+.1f%%), allocs/op %.0f -> %.0f\n",
					key, o.NsPerOp, n.NsPerOp, 100*delta, o.AllocsPerOp, n.AllocsPerOp)
			}
		}
	}
	// Everything else is informational: print notable moves only.
	var keys []string
	for k := range newBy {
		if !isPinned[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		o, ok := oldBy[k]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		n := newBy[k]
		delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		if delta > *maxRegress || delta < -*maxRegress {
			fmt.Printf("note %-60s ns/op %.0f -> %.0f (%+.1f%%)\n", k, o.NsPerOp, n.NsPerOp, 100*delta)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d pinned benchmark(s) regressed\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchjson: pinned fast paths within budget")
}

// index keys a file's benchmarks by package/name. The multicore sweep
// repeats a name at several GOMAXPROCS values; keep the 1-proc point so
// pins stay machine-independent, and last-write-wins otherwise.
func index(f File) map[string]Bench {
	by := map[string]Bench{}
	for _, b := range f.Benchmarks {
		key := b.Package + "/" + b.Name
		if prev, ok := by[key]; ok && prev.GoMaxProcs == 1 && b.GoMaxProcs != 1 {
			continue
		}
		by[key] = b
	}
	return by
}
