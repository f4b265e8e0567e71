package qald

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
)

// TestEvaluateWorkersCtxCancelled: a cancelled context stops the
// evaluation with its error and no report.
func TestEvaluateWorkersCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := EvaluateCtx(ctx, core.Default(), Questions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("non-nil report alongside error")
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
