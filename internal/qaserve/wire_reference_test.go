package qaserve

import "repro/internal/core"

// The reflective projection the server encoded replies with before
// reply.go: a core.Result copied into the AnswerResponse schema, for
// encoding/json to render. Kept verbatim as the oracle that
// TestAppendReplyMatchesEncodingJSON holds the appender to.

// StageTrace is the JSON projection of one pipeline stage record.
type StageTrace struct {
	Stage      string  `json:"stage"`
	DurationMS float64 `json:"duration_ms"`
	Candidates int     `json:"candidates,omitempty"`
	CacheHit   bool    `json:"cache_hit,omitempty"`
	// Plan-shape cache outcomes and term-rank sorts for the answer
	// stage's candidate fan-out; all absent when plan caching is
	// disabled (no fabricated misses) and on non-answer stages.
	PlanCacheHits   uint64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses uint64 `json:"plan_cache_misses,omitempty"`
	RankSorts       uint64 `json:"rank_sorts,omitempty"`
	// Scatter-gather shape of the answer stage on a sharded system.
	ShardsTotal    int    `json:"shards_total,omitempty"`
	ShardsAnswered int    `json:"shards_answered,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	Error          string `json:"error,omitempty"`
}

// AnswerResponse is the JSON projection of one pipeline Result: the
// /v1/answer reply schema the tests decode into. The server does not
// encode from it — appendResult (reply.go) writes these members
// straight from the Result.
type AnswerResponse struct {
	Question      string   `json:"question"`
	Status        string   `json:"status"`
	Answered      bool     `json:"answered"`
	Answers       []string `json:"answers,omitempty"`
	WinningSPARQL string   `json:"winning_sparql,omitempty"`
	Error         string   `json:"error,omitempty"`
	CacheHit      bool     `json:"cache_hit"`
	// Degraded marks a partial answer (allow_partial was set and at
	// least one shard was skipped); ShardsTotal / ShardsAnswered give
	// the exact scatter shape on any sharded answer, healthy or not
	// (recovery to undegraded is visible as answered == total). All
	// absent on single-store systems.
	Degraded       bool         `json:"degraded,omitempty"`
	ShardsTotal    int          `json:"shards_total,omitempty"`
	ShardsAnswered int          `json:"shards_answered,omitempty"`
	Trace          []StageTrace `json:"trace,omitempty"`
}

// toResponse projects a Result for the wire.
func (s *Server) toResponse(res *core.Result) AnswerResponse {
	resp := AnswerResponse{
		Question:      res.Question,
		Status:        res.Status.String(),
		Answered:      res.Answered(),
		Answers:       res.AnswerStrings(s.sys.KB),
		WinningSPARQL: res.WinningSPARQL(),
		CacheHit:      res.CacheHit,
		Degraded:      res.Degraded,
		ShardsTotal:   res.ShardsTotal, ShardsAnswered: res.ShardsAnswered,
	}
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	if res.Trace != nil {
		for _, st := range res.Trace.Stages {
			resp.Trace = append(resp.Trace, StageTrace{
				Stage:           st.Stage,
				DurationMS:      float64(st.Duration.Microseconds()) / 1e3,
				Candidates:      st.Candidates,
				CacheHit:        st.CacheHit,
				PlanCacheHits:   st.PlanCacheHits,
				PlanCacheMisses: st.PlanCacheMisses,
				RankSorts:       st.RankSorts,
				ShardsTotal:     st.ShardsTotal,
				ShardsAnswered:  st.ShardsAnswered,
				Degraded:        st.Degraded,
				Error:           st.Err,
			})
		}
	}
	return resp
}
