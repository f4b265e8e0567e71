package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/pipeline"
)

// Tests for the resilience semantics: cancellation and
// internal-fault classification, and the rule that neither outcome is
// ever cached (both depend on the request, not the question).

const lincolnQ = "Where did Abraham Lincoln die?"

// TestOverBudgetStatusAndNoCaching: a request whose budget is already
// spent (a canceled context) on a caching system answers canceled, and
// the outcome is not cached — the retry computes.
func TestOverBudgetStatusAndNoCaching(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSize = 64
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := s.AnswerCtx(ctx, lincolnQ)
	if res.Status != StatusCanceled || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("status = %v, err = %v; want canceled", res.Status, res.Err)
	}
	if n := s.CacheEntries(); n != 0 {
		t.Fatalf("canceled outcome cached: %d entries", n)
	}

	res = s.AnswerCtx(context.Background(), lincolnQ)
	if res.Status != StatusAnswered || res.CacheHit() {
		t.Fatalf("retry: status = %v, cacheHit = %v", res.Status, res.CacheHit())
	}
}

func TestInjectedFaultIsInternalAndNotCached(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSize = 64
	s := New(cfg)

	in := chaos.New(7, chaos.Rule{Point: "stage.answer", Kind: chaos.KindError, Prob: 1, Limit: 1})
	ctx := chaos.With(context.Background(), in)
	res := s.AnswerCtx(ctx, lincolnQ)
	if res.Status != StatusInternal {
		t.Fatalf("status = %v, want internal error", res.Status)
	}
	var ie *chaos.InjectedError
	if !errors.As(res.Err, &ie) {
		t.Fatalf("Err = %v, want *chaos.InjectedError", res.Err)
	}

	// The rule is exhausted (Limit 1): the same context must now answer,
	// and from computation, not from a poisoned cache entry.
	res = s.AnswerCtx(ctx, lincolnQ)
	if res.Status != StatusAnswered || res.CacheHit() {
		t.Fatalf("retry: status = %v, cacheHit = %v", res.Status, res.CacheHit())
	}
}

func TestRecoveredPanicIsInternal(t *testing.T) {
	s := Default()
	in := chaos.New(7, chaos.Rule{Point: "stage.triplex", Kind: chaos.KindPanic, Prob: 1})
	res := s.AnswerCtx(chaos.With(context.Background(), in), lincolnQ)
	if res.Status != StatusInternal {
		t.Fatalf("status = %v, want internal error", res.Status)
	}
	var pe *pipeline.PanicError
	if !errors.As(res.Err, &pe) || pe.Stage != StageTriplex {
		t.Fatalf("Err = %v, want *pipeline.PanicError at triplex", res.Err)
	}
}
