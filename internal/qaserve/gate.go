package qaserve

import (
	"net/http"
	"sync/atomic"
)

// Gate is the boot-time readiness handler: cmd/qaserve starts listening
// on it immediately, so liveness probes (/healthz) answer while the KB
// loads and the WAL recovers, and /readyz — plus every real route —
// answers 503 until SetReady hands over the assembled Server handler.
// Once ready, every request (including /readyz, which the Server then
// answers 200) is delegated; the swap is atomic and never un-done.
//
// The Gate also owns the other end of the lifecycle: SetDraining flips
// it into shutdown-drain mode, where every new request (except the
// /healthz liveness probe) answers 503 + Retry-After while in-flight
// requests finish under http.Server.Shutdown.
type Gate struct {
	next     atomic.Pointer[http.Handler]
	draining atomic.Bool
}

// NewGate returns a Gate in the not-ready state.
func NewGate() *Gate { return &Gate{} }

// SetReady atomically hands all traffic over to h.
func (g *Gate) SetReady(h http.Handler) { g.next.Store(&h) }

// SetDraining turns new requests away with 503 + Retry-After so load
// balancers move traffic off the instance instead of racing the
// listener teardown. cmd/qaserve sets it on SIGTERM, before calling
// http.Server.Shutdown; it is never un-done.
func (g *Gate) SetDraining() { g.draining.Store(true) }

func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		switch r.URL.Path {
		case "/healthz":
			// Still alive: the process is draining, not dead, and killing
			// it early would cut off the in-flight requests.
			writeJSON(w, http.StatusOK, map[string]any{"status": "draining"})
		default:
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		}
		return
	}
	if hp := g.next.Load(); hp != nil {
		(*hp).ServeHTTP(w, r)
		return
	}
	switch r.URL.Path {
	case "/healthz":
		// Alive, not ready: the process is up and loading.
		writeJSON(w, http.StatusOK, map[string]any{"status": "starting"})
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
	}
}
