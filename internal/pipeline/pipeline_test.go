package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
)

// fnStage adapts a func to Stage for tests.
type fnStage struct {
	name string
	run  func(ctx context.Context, s *[]string, tr *StageTrace) error
}

func (f fnStage) Name() string { return f.name }
func (f fnStage) Run(ctx context.Context, s *[]string, tr *StageTrace) error {
	return f.run(ctx, s, tr)
}

func appendStage(name string) fnStage {
	return fnStage{name: name, run: func(_ context.Context, s *[]string, tr *StageTrace) error {
		*s = append(*s, name)
		tr.Candidates = len(*s)
		return nil
	}}
}

func TestRunAllStagesInOrder(t *testing.T) {
	var got []string
	stages := []Stage[*[]string]{appendStage("a"), appendStage("b"), appendStage("c")}
	tr, err := New(stages...).Run(context.Background(), &got)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("stage order = %v", got)
	}
	if len(tr.Stages) != 3 {
		t.Fatalf("trace stages = %d", len(tr.Stages))
	}
	for i, name := range []string{"a", "b", "c"} {
		st := tr.Stages[i]
		if st.Stage != name || st.Err != "" {
			t.Errorf("trace[%d] = %+v", i, st)
		}
		if st.Candidates != i+1 {
			t.Errorf("trace[%d].Candidates = %d, want %d", i, st.Candidates, i+1)
		}
	}
	if got := tr.Stage("b"); got == nil || got.Candidates != 2 {
		t.Errorf("Stage(b) = %+v", got)
	}
	if tr.Stage("zzz") != nil {
		t.Error("Stage(zzz) should be nil")
	}
}

func TestRunErrStopEndsEarlyWithoutError(t *testing.T) {
	var got []string
	stop := fnStage{name: "stop", run: func(_ context.Context, s *[]string, tr *StageTrace) error {
		tr.CacheHit = true
		return ErrStop
	}}
	stages := []Stage[*[]string]{appendStage("a"), stop, appendStage("never")}
	tr, err := New(stages...).Run(context.Background(), &got)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fmt.Sprint(got) != "[a]" {
		t.Fatalf("stages after stop ran: %v", got)
	}
	if len(tr.Stages) != 2 {
		t.Fatalf("trace stages = %d, want 2", len(tr.Stages))
	}
	if !tr.CacheHit() {
		t.Error("CacheHit not propagated to trace")
	}
}

func TestRunStageErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	var got []string
	stages := []Stage[*[]string]{
		appendStage("a"),
		fnStage{name: "fail", run: func(context.Context, *[]string, *StageTrace) error { return boom }},
		appendStage("never"),
	}
	tr, err := New(stages...).Run(context.Background(), &got)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if fmt.Sprint(got) != "[a]" {
		t.Fatalf("stages after error ran: %v", got)
	}
	if tr.Stages[1].Err != "boom" {
		t.Errorf("failed stage trace = %+v", tr.Stages[1])
	}
}

func TestRunChecksContextAtEveryBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var got []string
	stages := []Stage[*[]string]{
		fnStage{name: "a", run: func(_ context.Context, s *[]string, _ *StageTrace) error {
			*s = append(*s, "a")
			cancel() // expires before the next boundary
			return nil
		}},
		appendStage("never"),
	}
	tr, err := New(stages...).Run(ctx, &got)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fmt.Sprint(got) != "[a]" {
		t.Fatalf("stage ran past cancelled boundary: %v", got)
	}
	if len(tr.Stages) != 1 {
		t.Fatalf("trace stages = %d, want 1", len(tr.Stages))
	}
}

func TestRunAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var got []string
	tr, err := New[*[]string](appendStage("a")).Run(ctx, &got)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(got) != 0 || len(tr.Stages) != 0 {
		t.Fatalf("ran despite cancelled ctx: %v / %+v", got, tr.Stages)
	}
}

// TestRunSeedsTrace: the seed entries open the trace, copied, before
// the stages — also when the context is cancelled before the first one.
func TestRunSeedsTrace(t *testing.T) {
	seed := []StageTrace{{Stage: "lookup", Duration: time.Microsecond}}
	var got []string
	tr, err := New[*[]string](appendStage("a"), appendStage("b")).Run(context.Background(), &got, seed...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(tr.Stages) != 3 || tr.Stages[0] != seed[0] || tr.Stages[1].Stage != "a" || tr.Stages[2].Stage != "b" {
		t.Fatalf("trace = %+v", tr.Stages)
	}
	if tr.Total() < time.Microsecond {
		t.Errorf("Total %v leaves out the seed", tr.Total())
	}
	tr.Stages[0].Stage = "changed"
	if seed[0].Stage != "lookup" {
		t.Error("Run's trace aliases the caller's seed")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err = New[*[]string](appendStage("a")).Run(ctx, &got, seed...)
	if !errors.Is(err, context.Canceled) || len(tr.Stages) != 1 || tr.Stages[0] != seed[0] {
		t.Fatalf("cancelled: err %v, trace %+v", err, tr.Stages)
	}
}

func TestRunRecoversStagePanic(t *testing.T) {
	var got []string
	stages := []Stage[*[]string]{
		appendStage("a"),
		fnStage{name: "bad", run: func(context.Context, *[]string, *StageTrace) error {
			panic("kaboom")
		}},
		appendStage("never"),
	}
	tr, err := New(stages...).Run(context.Background(), &got)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Stage != "bad" || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	if fmt.Sprint(got) != "[a]" {
		t.Fatalf("stages after panic ran: %v", got)
	}
	if tr.Stages[1].Err == "" {
		t.Errorf("panicking stage trace did not record the error: %+v", tr.Stages[1])
	}
}

func TestRunChaosFaultPointAtStageBoundary(t *testing.T) {
	in := chaos.New(1, chaos.Rule{Point: "stage.b", Kind: chaos.KindError, Prob: 1})
	ctx := chaos.With(context.Background(), in)
	var got []string
	stages := []Stage[*[]string]{appendStage("a"), appendStage("b"), appendStage("c")}
	tr, err := New(stages...).Run(ctx, &got)
	var ie *chaos.InjectedError
	if !errors.As(err, &ie) || ie.Point != "stage.b" {
		t.Fatalf("err = %v, want injected error at stage.b", err)
	}
	// The fault fires at the boundary, before the stage body runs.
	if fmt.Sprint(got) != "[a]" {
		t.Fatalf("stage body ran despite boundary fault: %v", got)
	}
	if len(tr.Stages) != 2 || tr.Stages[1].Err == "" {
		t.Fatalf("trace = %+v", tr.Stages)
	}
}

func TestRunChaosPanicIsRecoveredTyped(t *testing.T) {
	in := chaos.New(1, chaos.Rule{Point: "stage.*", Kind: chaos.KindPanic, Prob: 1})
	ctx := chaos.With(context.Background(), in)
	var got []string
	_, err := New[*[]string](appendStage("a")).Run(ctx, &got)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
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
}
