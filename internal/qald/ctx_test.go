package qald

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
)

// TestEvaluateWorkersCtxCancelled: a cancelled context stops the
// evaluation with its error at every worker count.
func TestEvaluateWorkersCtxCancelled(t *testing.T) {
	s := core.Default()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		rep, err := EvaluateWorkersCtx(ctx, s, Questions(), workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if rep != nil {
			t.Fatalf("workers=%d: non-nil report alongside error", workers)
		}
	}
}

// TestEvaluateCtxBackgroundMatchesEvaluate: the ctx plumbing leaves the
// scored report unchanged.
func TestEvaluateCtxBackgroundMatchesEvaluate(t *testing.T) {
	s := core.Default()
	qs := Questions()[:8]
	a, err := EvaluateCtx(context.Background(), s, qs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateCtx(context.Background(), s, qs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Answered != b.Answered || a.Correct != b.Correct || a.F1 != b.F1 {
		t.Fatalf("reports diverge: %+v vs %+v", a, b)
	}
}
