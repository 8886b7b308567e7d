package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// spanName identifies what a span timed. Names are the per-layer metric
// stems: the text before the first dot names the layer a span's self
// time is charged to.
type spanName uint8

const (
	spOp      spanName = iota // the benchmark's own work around one operation
	spSession                 // one remote-fs session
	spNewTask
	spTerminate
	spFork
	spLookup
	spOpen
	spReadAt
	spClose
	spReadFile
	spMapRead
	spStat
	spWriteFile
	spVMRead
	spVMReadAnon
	spVMWrite
	spVMAlloc
	spVMDealloc
	spTxWrite
	spTxCommit
	spTxAbort
	spDataRequest
)

var spanNames = [...]string{
	spOp:          "bench.op",
	spSession:     "bench.session",
	spNewTask:     "kern.new_task",
	spTerminate:   "kern.terminate",
	spFork:        "kern.fork",
	spLookup:      "netmsg.lookup",
	spOpen:        "fs.open",
	spReadAt:      "fs.read_at",
	spClose:       "fs.close",
	spReadFile:    "fs.read_file",
	spMapRead:     "fs.map_read",
	spStat:        "fs.stat",
	spWriteFile:   "fs.write_file",
	spVMRead:      "vm.read",
	spVMReadAnon:  "vm.read_anon",
	spVMWrite:     "vm.write",
	spVMAlloc:     "vm.allocate",
	spVMDealloc:   "vm.deallocate",
	spTxWrite:     "camelot.write",
	spTxCommit:    "camelot.commit",
	spTxAbort:     "camelot.abort",
	spDataRequest: "pager.data_request",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call into a layer, recorded from outside the layer.
// Times are nanoseconds since the run's trace base. The struct holds no
// pointers, so a million recorded spans cost the garbage collector
// nothing to scan.
type span struct {
	start, end int64
	parent     spanID // zero for a root span
	group      uint64 // session or transaction the span belongs to
	name       spanName
}

// spanID names a span across logs: log index in the high half, the
// span's 1-based position in that log in the low half (0 is "none").
type spanID uint64

// spanLog holds the spans of one goroutine (one client, or one data
// manager loop) in memory until the run ends. A nil *spanLog records
// nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	id    uint64
	base  time.Time
	spans offHeap[span]
	open  []spanID // stack of spans begun and not yet ended
	group uint64
}

// newSpanLog returns an empty log; its base is set when the run starts.
func newSpanLog(id int) *spanLog {
	return &spanLog{id: uint64(id)}
}

// begin opens a span under the innermost open span of this log.
func (l *spanLog) begin(name spanName) spanID {
	if l == nil {
		return 0
	}
	return l.beginUnder(name, l.top(), l.group)
}

// beginUnder opens a span with an explicit parent and group: a data
// manager's handler span is caused by a client's fault in another log.
func (l *spanLog) beginUnder(name spanName, parent spanID, group uint64) spanID {
	if l == nil {
		return 0
	}
	l.spans.push(span{
		name:   name,
		start:  int64(time.Since(l.base)),
		parent: parent,
		group:  group,
	})
	id := spanID(l.id<<32 | uint64(l.spans.len()))
	l.open = append(l.open, id)
	return id
}

// end closes the span begun last.
func (l *spanLog) end() {
	if l == nil {
		return
	}
	id := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.spans.at(int(uint32(id)) - 1).end = int64(time.Since(l.base))
}

// top returns the innermost open span, or zero.
func (l *spanLog) top() spanID {
	if l == nil || len(l.open) == 0 {
		return 0
	}
	return l.open[len(l.open)-1]
}

// setGroup starts a new session or transaction for the spans that follow.
func (l *spanLog) setGroup(g uint64) {
	if l != nil {
		l.group = g
	}
}

// spanStats is what one span name contributed to a traced run.
type spanStats struct {
	durs   []int64 // exact durations, ns
	selfNS int64   // summed self time, ns
}

// analyze computes per-name exact durations and self time over every
// log. A span's self time is its duration minus the time its children
// cover; a span's children never overlap one another (a client makes
// one call at a time, and a handler span's client waits for it), so the
// covered time is the sum of the children's durations. Only spans
// inside [from, to) count toward the statistics.
func analyze(logs []*spanLog, from, to int64) map[spanName]*spanStats {
	covered := make(map[spanID]int64)
	for _, l := range logs {
		for i := 0; i < l.spans.len(); i++ {
			if s := l.spans.at(i); s.parent != 0 && s.end > 0 {
				covered[s.parent] += s.end - s.start
			}
		}
	}
	out := make(map[spanName]*spanStats)
	for _, l := range logs {
		for i := 0; i < l.spans.len(); i++ {
			s := l.spans.at(i)
			if s.end == 0 || s.start < from || s.end > to {
				continue
			}
			st := out[s.name]
			if st == nil {
				st = &spanStats{}
				out[s.name] = st
			}
			d := s.end - s.start
			st.durs = append(st.durs, d)
			st.selfNS += d - covered[spanID(l.id<<32|uint64(i+1))]
		}
	}
	for _, st := range out {
		sort.Slice(st.durs, func(i, j int) bool { return st.durs[i] < st.durs[j] })
	}
	return out
}

// benchLayer is the layer of the benchmark's own spans.
const benchLayer = "bench"

// layerSelfNS sums self time by layer (the span name up to its first dot).
func layerSelfNS(stats map[spanName]*spanStats) map[string]int64 {
	out := make(map[string]int64)
	for name, st := range stats {
		layer, _, _ := strings.Cut(name.String(), ".")
		out[layer] += st.selfNS
	}
	return out
}

// writeSpans writes every recorded span as tab-separated text: log,
// index, name, start ns, end ns, parent (log:index, or -), group.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "log\tidx\tname\tstart_ns\tend_ns\tparent\tgroup")
	for _, l := range logs {
		for i := 0; i < l.spans.len(); i++ {
			s := l.spans.at(i)
			parent := "-"
			if s.parent != 0 {
				parent = fmt.Sprintf("%d:%d", uint64(s.parent)>>32, uint32(s.parent))
			}
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%s\t%d\n", l.id, i+1, s.name, s.start, s.end, parent, s.group)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
