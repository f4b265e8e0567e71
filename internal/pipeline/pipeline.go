// Package pipeline provides the request-scoped staged-execution
// framework the question answering pipeline runs on.
//
// A Pipeline is an ordered list of stages sharing one mutable state
// value (internal/core threads its per-question *Result through). Run
// drives them under a context.Context, enforcing cancellation at every
// stage boundary and recording a Trace — per-stage wall time, candidate
// counts and cache hit/miss — that callers (the CLIs, the qaserve
// metrics endpoint) can inspect without re-instrumenting the stages.
//
// The contract for a Stage's Run method:
//
//   - return nil to hand the state to the next stage;
//   - return ErrStop when the pipeline is complete early (a terminal
//     failure status) — Run stops without error;
//   - return a context error (ctx.Err(), possibly wrapped) when
//     cancellation interrupted the stage — Run surfaces it.
//
// Stages record stage-specific observations (candidate counts, plan
// cache outcomes) on the *StageTrace they are handed; timing and error
// capture are the framework's job.
//
// # Resilience
//
// Run is the serving layer's isolation boundary. A stage that panics
// does not take the process (or the request's in-flight slot) down:
// the panic is recovered at the stage boundary into a typed
// *PanicError carrying the stage name and stack, recorded on the
// stage's trace entry and returned like any other stage error. Every
// stage boundary is also a named chaos fault point ("stage.<name>",
// evaluated against the injector carried by the request context via
// internal/chaos), so the soak harness can inject latency, errors and
// panics exactly where real stages fail. Only stages have fault points:
// work a caller records in the seed of Run's trace (internal/core's
// answer-cache lookup) runs outside the pipeline and has none.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/chaos"
)

// ErrStop is the sentinel a Stage returns to finish the pipeline early
// without error: the state already carries its terminal outcome.
var ErrStop = errors.New("pipeline: stop")

// PanicError is a stage panic recovered at the stage boundary: the
// request answers 500 with its trace intact instead of the panic
// unwinding through the serving stack.
type PanicError struct {
	// Stage is the stage that panicked.
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline: stage %s panicked: %v", e.Stage, e.Value)
}

// Stage is one request-scoped pipeline step over state S. Name must be
// stable (it keys metrics); Run must honour ctx.
type Stage[S any] interface {
	Name() string
	Run(ctx context.Context, state S, tr *StageTrace) error
}

// StageTrace records one stage execution.
type StageTrace struct {
	// Stage is the Stage.Name that ran.
	Stage string
	// Duration is the stage's wall time.
	Duration time.Duration
	// Candidates counts the stage's output items (extracted triple
	// patterns, property candidates, candidate queries) — 0 when the
	// stage has no candidate notion.
	Candidates int
	// CacheHit marks the answer-cache lookup entry that served the
	// request (internal/core records it; no stage sets it).
	CacheHit bool
	// PlanCacheHits / PlanCacheMisses count the answer stage's
	// plan-shape cache outcomes for this request's candidate fan-out,
	// and RankSorts the result sorts executed over the snapshot's
	// term-rank permutation. All zero for non-answer stages and for
	// requests executed with plan caching disabled (a disabled cache
	// fabricates no misses).
	PlanCacheHits, PlanCacheMisses uint64
	RankSorts                      uint64
	// ShardsTotal / ShardsAnswered record the answer stage's
	// scatter-gather shape when the system runs sharded (internal/
	// shard): how many shards the cluster has and how many served this
	// request's reads. Degraded marks a partial answer (some shard was
	// skipped under the caller's allow_partial opt-in). All zero/false
	// for single-store systems and non-answer stages.
	ShardsTotal, ShardsAnswered int
	Degraded                    bool
	// Err is the stage's terminal error text ("" for success). Set for
	// both early-stop failure outcomes and cancellation.
	Err string
}

// Trace is the per-request record of every stage that ran, in order.
type Trace struct {
	Stages []StageTrace
}

// CacheHit reports whether any entry served the request from cache.
func (t *Trace) CacheHit() bool {
	for i := range t.Stages {
		if t.Stages[i].CacheHit {
			return true
		}
	}
	return false
}

// Stage returns the trace entry for the named stage (nil if it never
// ran).
func (t *Trace) Stage(name string) *StageTrace {
	for i := range t.Stages {
		if t.Stages[i].Stage == name {
			return &t.Stages[i]
		}
	}
	return nil
}

// Total returns the summed wall time across stages.
func (t *Trace) Total() time.Duration {
	var d time.Duration
	for i := range t.Stages {
		d += t.Stages[i].Duration
	}
	return d
}

// Pipeline is an ordered list of stages, built once and run per request.
type Pipeline[S any] struct {
	stages []Stage[S]
	// points[i] is the chaos fault point at stage i's boundary, named
	// here so that a request does not build the string per stage.
	points []string
}

// New assembles a pipeline from its stages, in order.
func New[S any](stages ...Stage[S]) *Pipeline[S] {
	p := &Pipeline[S]{stages: stages, points: make([]string, len(stages))}
	for i, st := range stages {
		p.points[i] = "stage." + st.Name()
	}
	return p
}

// Run drives the stages over state, checking ctx at every stage
// boundary. It always returns the Trace of the stages that ran, after
// copies of the seed entries (work the caller timed before the
// pipeline: internal/core seeds its answer-cache lookup). The error is
// non-nil for cancellation (ctx's error, observed at a
// boundary or surfaced by a stage), for a recovered stage panic
// (*PanicError) and for a chaos fault injected at a stage boundary. A
// stage returning ErrStop ends the pipeline successfully; any other
// stage error is returned as-is — callers classify it (context errors
// mean cancellation, everything else an internal failure).
func (p *Pipeline[S]) Run(ctx context.Context, state S, seed ...StageTrace) (*Trace, error) {
	tr := &Trace{Stages: append(make([]StageTrace, 0, len(seed)+len(p.stages)), seed...)}
	for i, st := range p.stages {
		if err := ctx.Err(); err != nil {
			return tr, err
		}
		tr.Stages = append(tr.Stages, StageTrace{Stage: st.Name()})
		stt := &tr.Stages[len(tr.Stages)-1]
		start := time.Now()
		err := runStage(ctx, st, p.points[i], state, stt)
		stt.Duration = time.Since(start)
		if err != nil {
			if errors.Is(err, ErrStop) {
				return tr, nil
			}
			stt.Err = err.Error()
			return tr, err
		}
	}
	return tr, nil
}

// runStage executes one stage behind the boundary's chaos fault point
// and panic isolation: an injected or organic panic is recovered here
// into a *PanicError, so a failing stage costs its request a 500, not
// the process.
func runStage[S any](ctx context.Context, st Stage[S], point string, state S, stt *StageTrace) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Stage: st.Name(), Value: v, Stack: debug.Stack()}
		}
	}()
	if err := chaos.HitCtx(ctx, point); err != nil {
		return err
	}
	return st.Run(ctx, state, stt)
}
