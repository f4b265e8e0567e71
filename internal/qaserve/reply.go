package qaserve

// The reply encoder of /v1/answer and /v1/answer/batch: each core.Result
// is appended straight into a pooled buffer, byte for byte what
// encoding/json writes for the AnswerResponse / BatchResponse schema of
// qaserve.go; wire_reference_test.go keeps that projection as the oracle.

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
)

// replyBufs recycles reply buffers between requests.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeResult answers with the AnswerResponse of one result.
func (s *Server) writeResult(w http.ResponseWriter, code int, res *core.Result) {
	s.writeResults(w, code, "", "\n", res)
}

// writeResults writes the results (at least one), comma-separated,
// between head and tail: the BatchResponse envelope around a batch.
func (s *Server) writeResults(w http.ResponseWriter, code int, head, tail string, results ...*core.Result) {
	bp := replyBufs.Get().(*[]byte)
	b := append((*bp)[:0], head...)
	for _, res := range results {
		b = append(s.appendResult(b, res), ',')
	}
	*bp = append(b[:len(b)-1], tail...) // tail takes the last comma's place
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(*bp)
	replyBufs.Put(bp)
}

// appendResult appends res as one AnswerResponse object.
func (s *Server) appendResult(b []byte, res *core.Result) []byte {
	b = appendString(append(b, `{"question":`...), res.Question)
	b = appendString(append(b, `,"status":`...), res.Status.String())
	b = strconv.AppendBool(append(b, `,"answered":`...), res.Answered())
	if len(res.Answers) > 0 {
		b = append(b, `,"answers":[`...)
		for _, a := range res.AnswerStrings(s.sys.KB) {
			b = append(appendString(b, a), ',')
		}
		b[len(b)-1] = ']' // in the last comma's place
	}
	b = appendNonEmpty(b, `,"winning_sparql":`, res.WinningSPARQL())
	b = appendNonEmpty(b, `,"error":`, res.ErrorText())
	b = strconv.AppendBool(append(b, `,"cache_hit":`...), res.CacheHit)
	b = appendTrue(b, `,"degraded":true`, res.Degraded)
	b = appendNonZero(b, `,"shards_total":`, res.ShardsTotal)
	b = appendNonZero(b, `,"shards_answered":`, res.ShardsAnswered)
	if res.Trace != nil && len(res.Trace.Stages) > 0 {
		b = append(b, `,"trace":[`...)
		for i := range res.Trace.Stages {
			st := &res.Trace.Stages[i]
			b = appendString(append(b, `{"stage":`...), st.Stage)
			b = strconv.AppendFloat(append(b, `,"duration_ms":`...), float64(st.Duration.Microseconds())/1e3, 'f', -1, 64)
			b = appendNonZero(b, `,"candidates":`, st.Candidates)
			b = appendTrue(b, `,"cache_hit":true`, st.CacheHit)
			b = appendNonZero(b, `,"plan_cache_hits":`, st.PlanCacheHits)
			b = appendNonZero(b, `,"plan_cache_misses":`, st.PlanCacheMisses)
			b = appendNonZero(b, `,"rank_sorts":`, st.RankSorts)
			b = appendNonZero(b, `,"shards_total":`, st.ShardsTotal)
			b = appendNonZero(b, `,"shards_answered":`, st.ShardsAnswered)
			b = appendTrue(b, `,"degraded":true`, st.Degraded)
			b = append(appendNonEmpty(b, `,"error":`, st.Err), '}', ',')
		}
		b[len(b)-1] = ']'
	}
	return append(b, '}')
}

// The omitempty members: each appends only a non-zero value (the
// schema's counts are never negative).
func appendNonEmpty(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return appendString(append(b, key...), v)
}

func appendTrue(b []byte, member string, v bool) []byte {
	if !v {
		return b
	}
	return append(b, member...)
}

func appendNonZero[T int | uint64](b []byte, key string, v T) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), uint64(v), 10)
}

// jsonEscapes maps an ASCII byte to its escape in a JSON string under
// encoding/json's default HTML-safe setting ("" for a byte that stands
// for itself): \u00XX for control bytes and <, >, &, but for the seven
// bytes with a two-character form.
var jsonEscapes = func() (t [utf8.RuneSelf]string) {
	for c := range t[:' '] {
		t[c] = `\u00` + strconv.FormatInt(0x100+int64(c), 16)[1:] // "1XX" without the 1
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = `\"`, `\\`, `\u003c`, `\u003e`, `\u0026`
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\b`, `\f`, `\n`, `\r`, `\t`
	return t
}()

// appendString appends s as the JSON string json.Marshal(s) is: ASCII
// by jsonEscapes, each byte of invalid UTF-8 as \ufffd, the separators
// U+2028 and U+2029 (line ends to JavaScript) escaped, the rest verbatim.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0 // s[start:i] is verbatim text not yet appended
	for i := 0; i < len(s); {
		esc, size := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = jsonEscapes[c]
		} else {
			var r rune
			switch r, size = utf8.DecodeRuneInString(s[i:]); {
			case r == utf8.RuneError && size == 1:
				esc = `\ufffd`
			case r == 0x2028:
				esc = `\u2028`
			case r == 0x2029:
				esc = `\u2029`
			}
		}
		if esc != "" {
			b = append(append(b, s[start:i]...), esc...)
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}
