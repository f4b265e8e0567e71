package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
)

// Tests for Compute's stage loop: order, early termination, error and
// panic isolation, the chaos fault points at the stage boundaries, the
// context checks between stages and the trace each run leaves. They
// drive Compute through the real stages, swapping one stage's method
// in the stages table where a test needs a stage to misbehave.

const pamukQ = "Which book is written by Orhan Pamuk?"

// swapStage replaces stage i's method for the rest of the test; its
// name and fault point stay.
func swapStage(t *testing.T, i int, run func(*System, context.Context, *Result, *StageTrace) error) {
	t.Helper()
	old := stages[i]
	stages[i].run = run
	t.Cleanup(func() { stages[i] = old })
}

// recordStages wraps every stage so that its body appends the stage's
// name to the returned log before running.
func recordStages(t *testing.T) *[]string {
	t.Helper()
	var ran []string
	for i := range stages {
		name, run := stages[i].name, stages[i].run
		swapStage(t, i, func(s *System, ctx context.Context, res *Result, tr *StageTrace) error {
			ran = append(ran, name)
			return run(s, ctx, res, tr)
		})
	}
	return &ran
}

// traceNames lists a Result's trace entries by name.
func traceNames(res *Result) string {
	var names []string
	for _, st := range res.Trace.Stages {
		names = append(names, st.Stage)
	}
	return fmt.Sprint(names)
}

func TestRunAllStagesInOrder(t *testing.T) {
	ran := recordStages(t)
	res := Default().AnswerCtx(context.Background(), pamukQ)
	if !res.Answered() {
		t.Fatalf("status = %v / %v", res.Status, res.Err)
	}
	if fmt.Sprint(*ran) != "[triplex propmap answer]" {
		t.Fatalf("stage order = %v", *ran)
	}
	if got := traceNames(res); got != "[triplex propmap answer]" {
		t.Fatalf("trace = %v", got)
	}
	for i, st := range res.Trace.Stages {
		if st.Err != "" || st.Candidates == 0 {
			t.Errorf("trace[%d] = %+v", i, st)
		}
	}
	if got := res.Trace.Stage(StagePropmap); got == nil || got != &res.Trace.Stages[1] {
		t.Errorf("Stage(propmap) = %+v", got)
	}
	if res.Trace.Stage("zzz") != nil {
		t.Error("Stage(zzz) should be nil")
	}
}

// TestRunErrStopEndsEarlyWithoutError: a stage that sets a terminal
// Status ends the run; it is an outcome, not an error, so it is cached
// like any other.
func TestRunErrStopEndsEarlyWithoutError(t *testing.T) {
	s := cachedSystem(t)
	ran := recordStages(t)
	stop := errors.New("no mapping")
	swapStage(t, 1, func(_ *System, _ context.Context, res *Result, tr *StageTrace) error {
		*ran = append(*ran, StagePropmap)
		res.fail(StatusNotMapped, stop, tr)
		return nil
	})
	res := s.AnswerCtx(context.Background(), pamukQ)
	if fmt.Sprint(*ran) != "[triplex propmap]" {
		t.Fatalf("stages after the terminal status ran: %v", *ran)
	}
	if res.Status != StatusNotMapped || res.Err != stop {
		t.Fatalf("status = %v / %v, want not mapped", res.Status, res.Err)
	}
	if got := traceNames(res); got != "[cache triplex propmap]" || res.Trace.Stages[2].Err != "no mapping" {
		t.Fatalf("trace = %v: %+v", got, res.Trace.Stages)
	}
	if n := s.CacheEntries(); n != 1 {
		t.Errorf("terminal outcome not cached: %d entries", n)
	}
}

func TestRunStageErrorSurfaces(t *testing.T) {
	ran := recordStages(t)
	boom := errors.New("boom")
	swapStage(t, 1, func(*System, context.Context, *Result, *StageTrace) error { return boom })
	res := Default().AnswerCtx(context.Background(), pamukQ)
	if res.Status != StatusInternal || !errors.Is(res.Err, boom) || res.ErrorText() != "boom" {
		t.Fatalf("status = %v, err = %v, want internal boom", res.Status, res.Err)
	}
	if fmt.Sprint(*ran) != "[triplex]" {
		t.Fatalf("stages after the error ran: %v", *ran)
	}
	if len(res.Trace.Stages) != 2 || res.Trace.Stages[1].Err != "boom" {
		t.Errorf("failed stage trace = %+v", res.Trace.Stages)
	}
}

// TestRunChecksContextAtEveryBoundary: a context cancelled inside stage
// i stops the run at the boundary after it.
func TestRunChecksContextAtEveryBoundary(t *testing.T) {
	for i := 0; i < len(stages)-1; i++ {
		t.Run(stages[i].name, func(t *testing.T) {
			ran := recordStages(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			run := stages[i].run
			swapStage(t, i, func(s *System, ctx context.Context, res *Result, tr *StageTrace) error {
				err := run(s, ctx, res, tr)
				cancel() // expires before the next boundary
				return err
			})
			res := Default().AnswerCtx(ctx, pamukQ)
			if res.Status != StatusCanceled || !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("status = %v, err = %v, want canceled", res.Status, res.Err)
			}
			if len(*ran) != i+1 || len(res.Trace.Stages) != i+1 {
				t.Fatalf("ran %v, trace %v: a stage ran past the cancelled boundary", *ran, traceNames(res))
			}
		})
	}
}

func TestRunAlreadyCancelled(t *testing.T) {
	ran := recordStages(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Default().AnswerCtx(ctx, pamukQ)
	if res.Status != StatusCanceled || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("status = %v, err = %v", res.Status, res.Err)
	}
	if len(*ran) != 0 || len(res.Trace.Stages) != 0 {
		t.Fatalf("ran despite cancelled ctx: %v / %+v", *ran, res.Trace.Stages)
	}
}

// TestRunSeedsTrace: a miss's trace opens with Lookup's entry and goes
// on with the stages, in the Result's own storage — also when the
// context is cancelled before the first stage.
func TestRunSeedsTrace(t *testing.T) {
	s := cachedSystem(t)
	a, b := s.Lookup(pamukQ), s.Lookup("Where did Abraham Lincoln die?")
	lookup := a.Trace.Stages[0]
	if len(a.Trace.Stages) != 1 || lookup.Stage != StageCache || lookup.CacheHit {
		t.Fatalf("lookup trace = %+v", a.Trace.Stages)
	}
	s.Compute(context.Background(), a)
	if got := traceNames(a); got != "[cache triplex propmap answer]" || a.Trace.Stages[0] != lookup {
		t.Fatalf("trace = %v: %+v", got, a.Trace.Stages)
	}
	if a.Trace.Total() < lookup.Duration+a.Trace.Stages[3].Duration {
		t.Errorf("Total %v leaves out an entry", a.Trace.Total())
	}
	a.Trace.Stages[0].Stage = "changed"
	if b.Trace.Stages[0].Stage != StageCache {
		t.Error("two Results share trace storage")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Compute(ctx, b)
	if b.Status != StatusCanceled || len(b.Trace.Stages) != 1 || b.Trace.Stages[0].Stage != StageCache {
		t.Fatalf("cancelled: %v, trace %+v", b.Status, b.Trace.Stages)
	}
}

func TestRunRecoversStagePanic(t *testing.T) {
	ran := recordStages(t)
	swapStage(t, 1, func(*System, context.Context, *Result, *StageTrace) error { panic("kaboom") })
	res := Default().AnswerCtx(context.Background(), pamukQ)
	var pe *PanicError
	if res.Status != StatusInternal || !errors.As(res.Err, &pe) {
		t.Fatalf("status = %v, err = %v, want *PanicError", res.Status, res.Err)
	}
	if pe.Stage != StagePropmap || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	if fmt.Sprint(*ran) != "[triplex]" {
		t.Fatalf("stages after the panic ran: %v", *ran)
	}
	if res.Trace.Stages[1].Err != pe.Error() {
		t.Errorf("panicking stage trace did not record the error: %+v", res.Trace.Stages[1])
	}
}

func TestRunChaosFaultPointAtStageBoundary(t *testing.T) {
	ran := recordStages(t)
	in := chaos.New(1, chaos.Rule{Point: "stage.propmap", Kind: chaos.KindError, Prob: 1})
	res := Default().AnswerCtx(chaos.With(context.Background(), in), pamukQ)
	var ie *chaos.InjectedError
	if res.Status != StatusInternal || !errors.As(res.Err, &ie) || ie.Point != "stage.propmap" {
		t.Fatalf("status = %v, err = %v, want injected error at stage.propmap", res.Status, res.Err)
	}
	// The fault fires at the boundary, before the stage body runs.
	if fmt.Sprint(*ran) != "[triplex]" {
		t.Fatalf("stage body ran despite boundary fault: %v", *ran)
	}
	if len(res.Trace.Stages) != 2 || res.Trace.Stages[1].Err == "" {
		t.Fatalf("trace = %+v", res.Trace.Stages)
	}
}

func TestRunChaosPanicIsRecoveredTyped(t *testing.T) {
	in := chaos.New(1, chaos.Rule{Point: "stage.*", Kind: chaos.KindPanic, Prob: 1})
	res := Default().AnswerCtx(chaos.With(context.Background(), in), pamukQ)
	var pe *PanicError
	if !errors.As(res.Err, &pe) || pe.Stage != StageTriplex || len(pe.Stack) == 0 {
		t.Fatalf("err = %v, want *PanicError at triplex", res.Err)
	}
	if _, ok := pe.Value.(*chaos.InjectedPanic); !ok {
		t.Fatalf("recovered value = %v, want *chaos.InjectedPanic", pe.Value)
	}
}

func TestTraceTotalSumsDurations(t *testing.T) {
	tr := &Trace{Stages: []StageTrace{
		{Stage: "a", Duration: 2 * time.Millisecond},
		{Stage: "b", Duration: 3 * time.Millisecond},
	}}
	if tr.Total() != 5*time.Millisecond {
		t.Fatalf("Total = %v", tr.Total())
	}

	// Every stage of a real run is timed into its entry.
	res := Default().AnswerCtx(context.Background(), pamukQ)
	var sum time.Duration
	for _, st := range res.Trace.Stages {
		if st.Duration <= 0 {
			t.Errorf("%s was not timed: %+v", st.Stage, st)
		}
		sum += st.Duration
	}
	if len(res.Trace.Stages) != len(stages) || res.Trace.Total() != sum {
		t.Fatalf("Total %v over %d entries, want %v over %d", res.Trace.Total(), len(res.Trace.Stages), sum, len(stages))
	}
}
