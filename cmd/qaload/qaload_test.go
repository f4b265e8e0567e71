package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/qacache"
	"repro/internal/qaserve"
	"repro/internal/sparql"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{2, 4, 4, 5, 9}, [3]float64{3, 4, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestUpperQuartileRateIgnoresSlowWindows(t *testing.T) {
	// Seven clean windows and one the host stole half of: the mean
	// drops 6%, the upper quartile does not move.
	windows := []int{1000, 1000, 1000, 500, 1000, 1000, 1000, 1000}
	if got := upperQuartileRate(windows, 1); got != 1000 {
		t.Errorf("upper-quartile rate = %v, want 1000", got)
	}
	if got := upperQuartileRate([]int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 2); got != 8.25*10/2 {
		t.Errorf("upper-quartile rate over 2 s windows = %v", got)
	}
}

func TestWindowPercentilesSkipThinAndPartialWindows(t *testing.T) {
	// Three full windows: 100 fast replies, 100 replies of which two are
	// slow, and 3 replies (too few to have a tail). A reply that completed
	// after the last full window is ignored.
	tl := tally{windows: make([]int, 3)}
	add := func(w int32, lat float64) {
		tl.latencies = append(tl.latencies, lat)
		tl.window = append(tl.window, w)
	}
	for i := 0; i < 100; i++ {
		add(0, 1)
		if i < 98 {
			add(1, 1)
		} else {
			add(1, 9)
		}
	}
	for i := 0; i < 3; i++ {
		add(2, 50)
	}
	add(3, 1000)
	got := tl.windowPercentiles(0.99, 10)
	if want := []float64{1, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("window p99s = %v, want %v", got, want)
	}
	if got := median(got); got != 5 {
		t.Errorf("median of window p99s = %v, want 5", got)
	}
}

func TestSpread(t *testing.T) {
	med, q1, q3, iqr, dev := spread([]float64{90, 100, 100, 100, 120})
	if med != 100 || q1 != 95 || q3 != 110 || iqr != 0.15 || dev != 0.2 {
		t.Errorf("spread = median %v q1 %v q3 %v iqr %v dev %v", med, q1, q3, iqr, dev)
	}
}

func streamBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Join(questionBodies(w.questions), []byte("\n"))
}

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadNames {
		a, b := streamBytes(t, name, 7), streamBytes(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		c := streamBytes(t, name, 8)
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same order", name)
		}
		// Another seed is another order of the same requests.
		sa, sc := bytes.Split(a, []byte("\n")), bytes.Split(c, []byte("\n"))
		sort.Slice(sa, func(i, j int) bool { return bytes.Compare(sa[i], sa[j]) < 0 })
		sort.Slice(sc, func(i, j int) bool { return bytes.Compare(sc[i], sc[j]) < 0 })
		if !reflect.DeepEqual(sa, sc) {
			t.Errorf("%s: seeds 7 and 8 gave different request sets", name)
		}
	}
	if !reflect.DeepEqual(poolBodies(7), poolBodies(7)) {
		t.Error("update pool: seed 7 gave two different streams")
	}
	if reflect.DeepEqual(poolBodies(7), poolBodies(8)) {
		t.Error("update pool: seeds 7 and 8 gave the same order")
	}
}

func TestColdStreamsAreByteIdentical(t *testing.T) {
	cold := streamBytes(t, "entity_cold", 3)
	for _, name := range []string{"shard4_cold", "update_mix"} {
		if !bytes.Equal(cold, streamBytes(t, name, 3)) {
			t.Errorf("%s does not send entity_cold's request stream", name)
		}
	}
}

func TestEntityColdExceedsAnswerCache(t *testing.T) {
	distinct := map[string]bool{}
	for _, q := range entityQuestions(1) {
		distinct[qacache.Normalize(q)] = true
	}
	// qaserve's default -cache is 1024 entries.
	if len(distinct) <= 1024 {
		t.Fatalf("entity_cold has %d distinct normalized questions, need more than 1024", len(distinct))
	}
	t.Logf("entity_cold: %d distinct normalized questions", len(distinct))
}

func TestUpdatePoolKeepsKBConstant(t *testing.T) {
	st := kb.Build(kb.DefaultConfig()).Store
	base := st.Len()
	apply := func(body []byte) {
		t.Helper()
		ops, err := sparql.ParseUpdate(string(body))
		if err != nil {
			t.Fatalf("pool body does not parse: %v\n%s", err, body)
		}
		st.ApplyBatch(ops)
	}
	apply(poolSeedBody())
	seeded := base + poolBatches*poolTriples
	if st.Len() != seeded {
		t.Fatalf("seeded store has %d triples, want %d", st.Len(), seeded)
	}
	before := st.Triples()
	bodies := poolBodies(5)
	if len(bodies) != 2*poolBatches {
		t.Fatalf("a cycle is %d bodies, want %d", len(bodies), 2*poolBatches)
	}
	for i, b := range bodies {
		apply(b)
		if st.Len() != seeded {
			t.Fatalf("after body %d the store has %d triples, want %d", i, st.Len(), seeded)
		}
	}
	if !reflect.DeepEqual(st.Triples(), before) {
		t.Error("a full cycle did not return the KB to the seeded state")
	}
	terms := st.TermCount()
	for _, b := range bodies {
		apply(b)
	}
	if st.TermCount() != terms {
		t.Errorf("second cycle grew the dictionary from %d to %d terms", terms, st.TermCount())
	}
}

// TestTraceAccounting drives the real handler through the load
// generator with tracing on and checks the attribution identity: for
// every traced request the stage durations plus qaserve.overhead_ms are
// the client latency, the overhead is never negative, and the spans nest.
func TestTraceAccounting(t *testing.T) {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.CacheSize = 1024
	ts := httptest.NewServer(qaserve.New(qaserve.Config{Sys: core.New(cfg)}).Handler())
	defer ts.Close()

	w, err := newWorkload("qald_hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	a := newAsker(ts.URL, 2, w.questions, oracle(ctx, oracleSystem(), w.questions))
	defer a.close()
	a.trace = true
	a.served = map[int][]string{}
	for pass := 0; pass < 2; pass++ { // cold, then served by the cache
		tl := a.pass(ctx, 2)
		if tl.failed != 0 || tl.attempted != len(w.questions) {
			t.Fatalf("pass %d: attempted %d, failed %d: %v", pass, tl.attempted, tl.failed, tl.firstErr)
		}
	}
	if len(a.served) != len(w.questions) {
		t.Errorf("a pass served %d distinct questions, want %d", len(a.served), len(w.questions))
	}
	if got := a.hits.Load(); got != int64(len(w.questions)) {
		t.Errorf("second pass had %d cache hits, want %d", got, len(w.questions))
	}
	if len(a.traced) != 2*len(w.questions) {
		t.Fatalf("%d traced requests, want %d", len(a.traced), 2*len(w.questions))
	}
	const eps = 1e-9
	for _, r := range a.traced {
		if len(r.Stages) == 0 {
			t.Fatalf("request %d carries no stage trace", r.ID)
		}
		if r.overheadMS() < 0 {
			t.Errorf("request %d: overhead %v ms is negative", r.ID, r.overheadMS())
		}
		if d := math.Abs(stageMS(r) + r.overheadMS() - r.latencyMS()); d > eps {
			t.Errorf("request %d: stages + overhead differ from latency by %v ms", r.ID, d)
		}
		spans := r.spans(a.traced[0].Start)
		root, server := spans[0], spans[1]
		if root.Name != "request" || server.Parent != "request" {
			t.Fatalf("request %d: unexpected span tree %+v", r.ID, spans[:2])
		}
		at := server.StartMS
		for _, s := range spans[2:] {
			if s.ID != r.ID || s.Parent != "qaserve.server" || math.Abs(s.StartMS-at) > eps {
				t.Errorf("request %d: stage span %+v does not follow its sibling inside the server span", r.ID, s)
			}
			at = s.EndMS
		}
		if math.Abs(at-server.EndMS) > 1e-6 || server.StartMS < root.StartMS || server.EndMS > root.EndMS+eps {
			t.Errorf("request %d: stages end at %v, server span is [%v, %v] inside [%v, %v]",
				r.ID, at, server.StartMS, server.EndMS, root.StartMS, root.EndMS)
		}
	}
	totals := totalsOf(a.traced)
	if totals.requests != len(a.traced) || totals.stageMS["cache"] <= 0 || totals.candidates["answer"] == 0 {
		t.Errorf("trace totals look empty: %+v", totals)
	}
}

func TestQALDScoreFromOracleAnswers(t *testing.T) {
	ctx := context.Background()
	sys := oracleSystem()
	w, err := newWorkload("qald_hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	served := map[string][]string{}
	for i, e := range oracle(ctx, sys, w.questions) {
		served[w.questions[i]] = e.answers
	}
	p, r, f1, err := qaldScore(ctx, sys.KB, served)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkQALD(p, r, f1); err != nil {
		t.Error(err)
	}
	if err := checkQALD(p, r-0.1, f1); err == nil {
		t.Error("checkQALD accepted a recall of 0.23")
	}
}

// TestCatalogueMatchesSpec keeps the metric and workload names spelled
// in this package and in BENCHMARK.json the same.
func TestCatalogueMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, qaload runs %v", names, workloadNames)
	}
	same := func(kind string, spec []m, defs []metricDef) {
		var got []m
		for _, d := range defs {
			got = append(got, m{d.name, d.unit})
		}
		if !reflect.DeepEqual(spec, got) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nqaload         %v", kind, spec, got)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
