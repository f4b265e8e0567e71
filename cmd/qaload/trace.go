package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. Spans of one request share ID; Parent
// names the span that caused this one ("" for the root).
type span struct {
	ID      int64   `json:"id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMS float64 `json:"start_ms"` // since the first traced request
	EndMS   float64 `json:"end_ms"`
}

func stageMS(r tracedRequest) float64 {
	var sum float64
	for _, st := range r.Stages {
		sum += st.DurationMS
	}
	return sum
}

func (r tracedRequest) latencyMS() float64 {
	return float64(r.End.Sub(r.Start)) / float64(time.Millisecond)
}

// overheadMS is the part of the client-observed latency no pipeline
// stage accounts for: loopback transport, HTTP parsing, admission, JSON
// encoding and decoding. The stages run inside the request interval on
// the same monotonic clock, so it is never negative.
func (r tracedRequest) overheadMS() float64 { return r.latencyMS() - stageMS(r) }

// spans lays one request out as request → qaserve.server → stage.*.
// The server reports stage durations, not timestamps, so the server
// span is centred in the request interval (half the overhead before,
// half after) and the stages are laid end to end inside it; durations
// are exact, offsets inside the request are reconstructed.
func (r tracedRequest) spans(epoch time.Time) []span {
	start := float64(r.Start.Sub(epoch)) / float64(time.Millisecond)
	end := start + r.latencyMS()
	half := r.overheadMS() / 2
	out := []span{
		{ID: r.ID, Name: "request", StartMS: start, EndMS: end},
		{ID: r.ID, Name: "qaserve.server", Parent: "request", StartMS: start + half, EndMS: end - half},
	}
	at := start + half
	for _, st := range r.Stages {
		out = append(out, span{ID: r.ID, Name: "stage." + st.Stage, Parent: "qaserve.server", StartMS: at, EndMS: at + st.DurationMS})
		at += st.DurationMS
	}
	return out
}

// writeSpans writes every request's spans as JSON lines. Spans are kept
// in memory during the run and written only here, after it.
func writeSpans(path string, traced []tracedRequest) error {
	if len(traced) == 0 {
		return os.WriteFile(path, nil, 0o644)
	}
	epoch := traced[0].Start
	for _, r := range traced {
		if r.Start.Before(epoch) {
			epoch = r.Start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range traced {
		for _, s := range r.spans(epoch) {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceTotals sums the server's own stage records over the traced
// requests: time and candidates per stage, plan-cache outcomes, rank
// sorts, and the unattributed overhead.
type traceTotals struct {
	requests   int
	overheadMS float64
	stageMS    map[string]float64
	candidates map[string]int
	planHits   uint64
	planMisses uint64
	resultHits uint64
	rankSorts  uint64
}

func totalsOf(traced []tracedRequest) traceTotals {
	t := traceTotals{stageMS: map[string]float64{}, candidates: map[string]int{}}
	for _, r := range traced {
		t.requests++
		t.overheadMS += r.overheadMS()
		for _, st := range r.Stages {
			t.stageMS[st.Stage] += st.DurationMS
			t.candidates[st.Stage] += st.Candidates
			t.planHits += st.PlanCacheHits
			t.planMisses += st.PlanCacheMisses
			t.resultHits += st.PlanResultHits
			t.rankSorts += st.RankSorts
		}
	}
	return t
}
