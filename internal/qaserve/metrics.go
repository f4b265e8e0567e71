package qaserve

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// Prometheus-style metrics for the serving layer, hand-rolled on the
// standard library (the repo takes no dependencies). Stage latency is
// recorded per pipeline stage from each request's Trace.

// histBounds are the histogram bucket upper bounds in seconds,
// exponential from 100µs to 10s — the uncached pipeline sits around a
// few hundred µs to a few ms on the reference KB, cache hits far below
// the first bucket.
var histBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bounds latency histogram safe for concurrent
// observation.
type histogram struct {
	counts []atomic.Uint64 // len(histBounds)+1, last = +Inf
	sumNS  atomic.Uint64
	count  atomic.Uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Uint64, len(histBounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(histBounds, s)
	h.counts[i].Add(1)
	h.sumNS.Add(uint64(d.Nanoseconds()))
	h.count.Add(1)
}

// metrics aggregates the serving counters.
type metrics struct {
	// inflight is the in-flight slots held, one per admitted request.
	// Admission compares it against the thresholds (Server.trySlot).
	inflight atomic.Int64

	requestsOK       atomic.Uint64
	requestsBad      atomic.Uint64
	requestsTimeout  atomic.Uint64
	requestsShed     atomic.Uint64 // deadline-budget sheds (spent at admission)
	requestsInternal atomic.Uint64 // 500s: recovered pipeline panics and injected faults

	// shed counts the 503s admission wrote, by priority; their sum is
	// the rejected outcome of qaserve_requests_total.
	shed [numPriorities]atomic.Uint64

	requestsUnavailable atomic.Uint64 // 503s: shard unreachable without allow_partial
	partialAnswers      atomic.Uint64 // degraded 200s served under allow_partial

	updatesOK       atomic.Uint64
	updatesBad      atomic.Uint64
	updatesDenied   atomic.Uint64
	updatesFailed   atomic.Uint64
	updatesReadOnly atomic.Uint64 // 501s while the WAL is poisoned (degraded mode)

	panics atomic.Uint64 // handler-level panics caught by the recoverware backstop

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	// stages maps each of stageNames to its latency histogram. Filled by
	// newMetrics and only read afterwards, so a request's observes take
	// no lock.
	stages map[string]*histogram
	total  *histogram
}

// stageNames are the pipeline's stages in the order /metrics lists them.
// A stage added to core is added here: observing an unregistered one
// fails every test that serves a request.
var stageNames = []string{core.StageAnswer, core.StageCache, core.StagePropmap, core.StageTriplex}

func newMetrics() *metrics {
	m := &metrics{stages: map[string]*histogram{}, total: newHistogram()}
	for _, name := range stageNames {
		m.stages[name] = newHistogram()
	}
	return m
}

// render writes the metrics in the Prometheus text exposition format.
func (m *metrics) render(sb *strings.Builder) {
	fmt.Fprintf(sb, "# HELP qaserve_inflight_requests In-flight slots held: requests being answered.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_inflight_requests gauge\n")
	fmt.Fprintf(sb, "qaserve_inflight_requests %d\n", m.inflight.Load())

	fmt.Fprintf(sb, "# HELP qaserve_requests_total Requests by outcome.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_requests_total counter\n")
	fmt.Fprintf(sb, "qaserve_requests_total{outcome=\"ok\"} %d\n", m.requestsOK.Load())
	fmt.Fprintf(sb, "qaserve_requests_total{outcome=\"bad_request\"} %d\n", m.requestsBad.Load())
	var shed [numPriorities]uint64
	for p := range shed {
		shed[p] = m.shed[p].Load()
	}
	fmt.Fprintf(sb, "qaserve_requests_total{outcome=\"rejected\"} %d\n", shed[prioNormal]+shed[prioCached])
	fmt.Fprintf(sb, "qaserve_requests_total{outcome=\"timeout\"} %d\n", m.requestsTimeout.Load())
	fmt.Fprintf(sb, "qaserve_requests_total{outcome=\"shed\"} %d\n", m.requestsShed.Load())
	fmt.Fprintf(sb, "qaserve_requests_total{outcome=\"error\"} %d\n", m.requestsInternal.Load())
	fmt.Fprintf(sb, "qaserve_requests_total{outcome=\"unavailable\"} %d\n", m.requestsUnavailable.Load())

	fmt.Fprintf(sb, "# HELP qaserve_admission_shed_total Requests shed at admission with 503, by priority.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_admission_shed_total counter\n")
	for p, n := range shed {
		fmt.Fprintf(sb, "qaserve_admission_shed_total{priority=%q} %d\n", priorityNames[p], n)
	}

	fmt.Fprintf(sb, "# HELP qaserve_shard_partial_answers_total Degraded partial answers served under allow_partial.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_shard_partial_answers_total counter\n")
	fmt.Fprintf(sb, "qaserve_shard_partial_answers_total %d\n", m.partialAnswers.Load())

	fmt.Fprintf(sb, "# HELP qaserve_updates_total SPARQL UPDATE requests by outcome.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_updates_total counter\n")
	fmt.Fprintf(sb, "qaserve_updates_total{outcome=\"ok\"} %d\n", m.updatesOK.Load())
	fmt.Fprintf(sb, "qaserve_updates_total{outcome=\"bad_request\"} %d\n", m.updatesBad.Load())
	fmt.Fprintf(sb, "qaserve_updates_total{outcome=\"denied\"} %d\n", m.updatesDenied.Load())
	fmt.Fprintf(sb, "qaserve_updates_total{outcome=\"error\"} %d\n", m.updatesFailed.Load())
	fmt.Fprintf(sb, "qaserve_updates_total{outcome=\"read_only\"} %d\n", m.updatesReadOnly.Load())

	fmt.Fprintf(sb, "# HELP qaserve_panics_total Handler panics recovered by the backstop middleware.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_panics_total counter\n")
	fmt.Fprintf(sb, "qaserve_panics_total %d\n", m.panics.Load())

	fmt.Fprintf(sb, "# HELP qaserve_cache_requests_total Answer cache lookups by outcome.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_cache_requests_total counter\n")
	fmt.Fprintf(sb, "qaserve_cache_requests_total{outcome=\"hit\"} %d\n", m.cacheHits.Load())
	fmt.Fprintf(sb, "qaserve_cache_requests_total{outcome=\"miss\"} %d\n", m.cacheMisses.Load())

	fmt.Fprintf(sb, "# HELP qaserve_stage_duration_seconds Per-stage pipeline latency from request traces.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_stage_duration_seconds histogram\n")
	for _, name := range stageNames {
		renderHistogram(sb, "qaserve_stage_duration_seconds", fmt.Sprintf("stage=%q", name), m.stages[name])
	}

	fmt.Fprintf(sb, "# HELP qaserve_request_duration_seconds End-to-end answer latency.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_request_duration_seconds histogram\n")
	renderHistogram(sb, "qaserve_request_duration_seconds", "", m.total)
}

func renderHistogram(sb *strings.Builder, name, label string, h *histogram) {
	sep := ""
	if label != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, bound := range histBounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(sb, "%s_bucket{%s%sle=\"%g\"} %d\n", name, label, sep, bound, cum)
	}
	cum += h.counts[len(histBounds)].Load()
	fmt.Fprintf(sb, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, label, sep, cum)
	if label != "" {
		fmt.Fprintf(sb, "%s_sum{%s} %g\n", name, label, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(sb, "%s_count{%s} %d\n", name, label, h.count.Load())
	} else {
		fmt.Fprintf(sb, "%s_sum %g\n", name, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(sb, "%s_count %d\n", name, h.count.Load())
	}
}

// runtimeMetrics are the Go runtime figures /metrics exports.
var runtimeMetrics = [...]struct{ sample, name, kind, help string }{
	{"/gc/heap/live:bytes", "qaserve_go_heap_live_bytes", "gauge", "Heap bytes the last completed GC cycle marked live."},
	{"/gc/heap/objects:objects", "qaserve_go_heap_objects", "gauge", "Objects occupying heap memory, live or not yet swept."},
	{"/gc/cycles/total:gc-cycles", "qaserve_go_gc_cycles_total", "counter", "Completed GC cycles."},
	{"/cpu/classes/gc/total:cpu-seconds", "qaserve_go_gc_cpu_seconds_total", "counter", "Estimated CPU time spent on garbage collection."},
}

// renderRuntime reads them through runtime/metrics at scrape time, which
// unlike runtime.ReadMemStats does not stop the world.
func renderRuntime(sb *strings.Builder) {
	var samples [len(runtimeMetrics)]rtmetrics.Sample
	for i := range samples {
		samples[i].Name = runtimeMetrics[i].sample
	}
	rtmetrics.Read(samples[:])
	for i, rm := range runtimeMetrics {
		v := 0.0 // stays 0 for a metric this Go runtime lacks (none does since 1.21)
		switch val := samples[i].Value; val.Kind() {
		case rtmetrics.KindUint64:
			v = float64(val.Uint64())
		case rtmetrics.KindFloat64:
			v = val.Float64()
		}
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", rm.name, rm.help, rm.name, rm.kind,
			rm.name, strconv.FormatFloat(v, 'f', -1, 64))
	}
}

// renderStore writes the KB store's gauges, all read from sn, the one
// snapshot the scrape pinned, so they describe a single generation.
func renderStore(sb *strings.Builder, sn *store.Snapshot) {
	fmt.Fprintf(sb, "# HELP qaserve_store_generation Write-batch generation of the KB snapshot being served.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_store_generation gauge\nqaserve_store_generation %d\n", sn.Gen())
	fmt.Fprintf(sb, "# HELP qaserve_store_triples Distinct triples in the KB snapshot.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_store_triples gauge\nqaserve_store_triples %d\n", sn.Len())
	fmt.Fprintf(sb, "# HELP qaserve_store_terms Terms in the KB dictionary, orphans included: it only grows.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_store_terms gauge\nqaserve_store_terms %d\n", sn.TermCount())
}
