package main

import (
	"fmt"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// setSpanP50 reports the exact median duration of a span name in µs,
// when the run recorded any.
func (m metrics) setSpanP50(name string, span spanName, w *window) {
	if st := w.spans[span]; st != nil {
		m.set(name, float64(quantile(st.durs, 0.5))/1e3, "us")
	}
}

// spanMeanUS is the mean duration of a span name in µs.
func spanMeanUS(w *window, span spanName) float64 {
	st := w.spans[span]
	if st == nil || len(st.durs) == 0 {
		return 0
	}
	var sum int64
	for _, d := range st.durs {
		sum += d
	}
	return float64(sum) / float64(len(st.durs)) / 1e3
}

// lines renders the metrics sorted by name, one "name value unit" each.
func (m metrics) lines() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("%-36s %14.6g %s", n, m[n].Value, m[n].Unit)
	}
	return out
}

// layerMetrics derives the per-layer metrics every workload has: ipc
// traffic, the Go runtime, vm_statistics, kern and vm span timings, the
// frame-pool pager counters, and self time by layer.
func layerMetrics(m metrics, w *window) {
	ops := float64(w.ops)
	o := w.d.obs

	sends := sumCounters(o, ".ipc.sends")
	m.set("ipc.sends_per_op", sends/ops, "count")
	m.set("ipc.handoff_ratio", ratio(sumCounters(o, ".ipc.handoffs"), sends), "ratio")
	m.set("ipc.queue_full_stalls", sumCounters(o, ".ipc.queue_full_stalls"), "count")
	// The registry samples one message in 64 into log2 buckets; the mean
	// charges each sample its bucket midpoint.
	ql := mergeHists(o, ".ipc.latency_ns")
	m.set("ipc.queue_latency_us", ql.Mean()/1e3, "us")

	m.set("go.gc_cycles_per_kop", float64(w.d.numGC)*1e3/ops, "count")
	m.set("go.gc_pause_p99_us", gcPauseP99NS(w.d.numGC)/1e3, "us")

	v := w.d.vm
	m.set("vm.faults_per_op", float64(v.Faults)/ops, "count")
	m.set("vm.pageins_per_op", float64(v.Pageins)/ops, "count")
	m.set("vm.pageouts_per_op", float64(v.Pageouts)/ops, "count")
	m.set("vm.cow_faults_per_op", float64(v.CowFaults)/ops, "count")
	m.set("vm.reactivations_per_op", float64(v.Reactivations)/ops, "count")
	m.set("vm.hit_ratio", ratio(float64(v.Hits), float64(v.Lookups)), "ratio")
	m.setSpanP50("vm.read_us", spVMRead, w)
	m.setSpanP50("vm.write_us", spVMWrite, w)
	m.setSpanP50("kern.new_task_us", spNewTask, w)
	m.setSpanP50("kern.terminate_us", spTerminate, w)
	m.setSpanP50("kern.fork_us", spFork, w)

	// Frame-pool counters: only a pager stack with a frame pool moves them.
	for _, c := range []string{"faults_cold", "faults_warm", "evictions", "writebacks"} {
		m.set("pager."+c, float64(o.Counters["pager."+c]), "count")
	}

	// The bench layer is the benchmark's own code around the calls
	// (generating inputs, checking outputs): it is reported as
	// unattributed, and only the kernel's layers count as attributed.
	var total, attributed int64
	for layer, ns := range layerSelfNS(w.spans) {
		m.set("self_us_per_op."+layer, float64(ns)/1e3/ops, "us")
		total += ns
		if layer != benchLayer {
			attributed += ns
		}
	}
	m.set("attributed_us_per_op", float64(attributed)/1e3/ops, "us")
	m.set("unattributed_pct", 100*ratio(float64(total-attributed), float64(total)), "%")
}

// rpcMetrics reports, for each named method of a service on host,
// the handler time from the registry's per-MsgID histogram and the
// transport time: the client-timed span minus the handler time.
func rpcMetrics(m metrics, w *window, host int, methods []rpcMethod) {
	for _, rm := range methods {
		h := w.d.obs.Hists[fmt.Sprintf("host%d.rpc.msg%d.latency_ns", host, rm.id)]
		handler := h.Mean() / 1e3
		m.set("rpc.handler_us."+rm.name, handler, "us")
		if rm.span != spOp {
			m.set("rpc.transport_us."+rm.name, spanMeanUS(w, rm.span)-handler, "us")
		}
	}
}

// rpcTimings names the timings rpcMetrics reports for methods.
func rpcTimings(methods []rpcMethod) []string {
	var out []string
	for _, rm := range methods {
		out = append(out, "rpc.handler_us."+rm.name)
		if rm.span != spOp {
			out = append(out, "rpc.transport_us."+rm.name)
		}
	}
	return out
}

// rpcMethod names one RPC of a service: its message ID and the span
// the client times it under.
type rpcMethod struct {
	name string
	id   int32
	span spanName // spOp when the call has no span of its own
}
