package qaserve

import "repro/internal/core"

// The reflective projection the server encoded replies with before
// reply.go: a core.Result copied into the AnswerResponse schema, for
// encoding/json to render. Kept verbatim as the oracle that
// TestAppendReplyMatchesEncodingJSON holds the appender to.

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
