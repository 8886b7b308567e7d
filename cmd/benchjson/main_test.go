package main

import "testing"

func TestParseBenchProcs(t *testing.T) {
	for _, tc := range []struct {
		line  string
		name  string
		procs int
	}{
		// GOMAXPROCS 1: the harness appends no suffix, and a trailing
		// number inside the name must stay part of it.
		{"BenchmarkCrossHostBatchedRPC/batched16 \t  617826\t       591.6 ns/op\t     286 B/op\t       4 allocs/op",
			"BenchmarkCrossHostBatchedRPC/batched16", 1},
		// GOMAXPROCS 2: the -2 suffix is the proc count.
		{"BenchmarkCrossHostBatchedRPC/batched16-2 \t  617826\t       591.6 ns/op\t     286 B/op\t       4 allocs/op",
			"BenchmarkCrossHostBatchedRPC/batched16", 2},
	} {
		m := benchLine.FindStringSubmatch(tc.line)
		if m == nil {
			t.Fatalf("%q: not a benchmark line", tc.line)
		}
		b, err := parseBench("repro", m, 1)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != tc.name || b.GoMaxProcs != tc.procs {
			t.Errorf("%q: name %q procs %d, want %q procs %d", tc.line, b.Name, b.GoMaxProcs, tc.name, tc.procs)
		}
		if b.Iterations != 617826 || b.NsPerOp != 591.6 || b.BytesPerOp != 286 || b.AllocsPerOp != 4 {
			t.Errorf("%q: metrics %+v", tc.line, b)
		}
	}
}
