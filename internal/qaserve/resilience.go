package qaserve

// Overload and failure handling for the serving layer: the client
// deadline-budget header, the panic-recovery backstop, the
// WAL-poisoned degraded mode, and the resilience metrics. The policy
// is described in the package comment; cmd/qaserve/README.md has the
// operator's view.

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// BudgetHeader carries the client's remaining deadline budget as a Go
// duration ("250ms", "2s"). The effective pipeline timeout becomes
// min(budget, RequestTimeout) — a cache hit runs no pipeline and is
// served whatever is left; a budget that is already spent is shed
// at admission with 503 + Retry-After before any work runs.
// Malformed values are ignored rather than rejected — a broken proxy
// header should not take the endpoint down.
const BudgetHeader = "X-Request-Budget"

// requestBudget resolves the effective timeout for a request. ok is
// false when the declared budget is already spent and the request must
// be shed at admission.
func (s *Server) requestBudget(r *http.Request) (budget time.Duration, ok bool) {
	h := r.Header.Get(BudgetHeader)
	if h == "" {
		return s.timeout, true
	}
	d, err := time.ParseDuration(h)
	if err != nil {
		return s.timeout, true
	}
	if d <= 0 {
		return 0, false
	}
	if s.timeout > 0 && d > s.timeout {
		d = s.timeout
	}
	return d, true
}

// shedExpired answers a request whose budget was spent before any work
// started. It counts as a shed, not a rejection: capacity was not the
// problem, the deadline was.
func (s *Server) shedExpired(w http.ResponseWriter) {
	s.m.requestsShed.Add(1)
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable,
		errorResponse{Error: "request budget already expired"})
}

// degraded reports whether the updater's WAL has poisoned itself (a
// failed append could not be rolled back, so further appends are
// refused until a restart recovers the log). Reads keep serving the
// in-memory store; handleUpdate answers 501 and /readyz reports
// "degraded" while this is true.
func (s *Server) degraded() bool {
	p, ok := s.updater.(interface{ Poisoned() bool })
	return ok && p.Poisoned()
}

// statusWriter tracks whether the handler already wrote a header, so
// the panic backstop knows whether a 500 can still be sent on the
// response.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// recoverware is the last-resort panic backstop. Pipeline panics are
// already recovered at stage boundaries into typed errors
// (core.PanicError → 500 with the trace attached); this middleware
// catches anything that escapes a handler itself, answers 500 instead
// of net/http's default connection teardown, and counts it — no
// request goroutine is ever lost to a panic. http.ErrAbortHandler is
// re-raised: it is net/http's own control flow, not a failure.
func (s *Server) recoverware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				s.m.panics.Add(1)
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError,
						errorResponse{Error: fmt.Sprintf("internal panic: %v", v)})
				}
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// renderResilience appends the server-level resilience metrics that
// live outside the counter struct: the adaptive limiter's state, the
// degraded gauge, and the chaos injector's cumulative injections.
func (s *Server) renderResilience(sb *strings.Builder) {
	if s.limiter != nil {
		fmt.Fprintf(sb, "# HELP qaserve_admission_limit Current adaptive concurrency limit.\n")
		fmt.Fprintf(sb, "# TYPE qaserve_admission_limit gauge\n")
		fmt.Fprintf(sb, "qaserve_admission_limit %d\n", s.limiter.Limit())
		b, n, c := s.limiter.Shed()
		fmt.Fprintf(sb, "# HELP qaserve_admission_shed_total Requests shed by the adaptive limiter, by priority.\n")
		fmt.Fprintf(sb, "# TYPE qaserve_admission_shed_total counter\n")
		fmt.Fprintf(sb, "qaserve_admission_shed_total{priority=\"batch\"} %d\n", b)
		fmt.Fprintf(sb, "qaserve_admission_shed_total{priority=\"normal\"} %d\n", n)
		fmt.Fprintf(sb, "qaserve_admission_shed_total{priority=\"cached\"} %d\n", c)
	}
	fmt.Fprintf(sb, "# HELP qaserve_degraded Whether the WAL is poisoned and the server is read-only.\n")
	fmt.Fprintf(sb, "# TYPE qaserve_degraded gauge\n")
	d := 0
	if s.degraded() {
		d = 1
	}
	fmt.Fprintf(sb, "qaserve_degraded %d\n", d)
	if injs := s.chaos.Snapshot(); len(injs) > 0 {
		fmt.Fprintf(sb, "# HELP qaserve_chaos_injections_total Injected faults by point and kind.\n")
		fmt.Fprintf(sb, "# TYPE qaserve_chaos_injections_total counter\n")
		for _, in := range injs {
			fmt.Fprintf(sb, "qaserve_chaos_injections_total{point=%q,kind=%q} %d\n",
				in.Point, in.Kind.String(), in.Count)
		}
	}
}
