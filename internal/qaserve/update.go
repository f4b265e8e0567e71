package qaserve

import (
	"context"
	"crypto/subtle"
	"errors"
	"net/http"
	"strings"

	"repro/internal/chaos"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Updater commits one SPARQL UPDATE request's operations as a single
// durable, atomic batch and returns the snapshot generation the batch
// published at. internal/wal.Manager implements it (via ApplyUpdate);
// a nil Updater leaves the server read-only.
type Updater interface {
	ApplyUpdate(ctx context.Context, ops []store.BatchOp) (gen uint64, added, removed int, err error)
}

// UpdateResponse is the /v1/update reply.
type UpdateResponse struct {
	// Generation is the store snapshot generation the batch committed
	// at; /healthz reports the same number once the write is visible.
	Generation uint64 `json:"generation"`
	Added      int    `json:"added"`
	Removed    int    `json:"removed"`
	// Ops is the number of INSERT DATA / DELETE DATA operations the
	// request contained (all applied as one batch).
	Ops int `json:"ops"`
}

// maxUpdateBytes bounds /v1/update bodies. Updates carry triple data,
// so the cap is larger than the question endpoints' — but still a cap:
// a bulk load should go through the data dir, not one giant request.
const maxUpdateBytes = 4 << 20

// authorized checks the Bearer token in constant time.
func (s *Server) authorized(r *http.Request) bool {
	if s.updateToken == "" {
		return true
	}
	const prefix = "Bearer "
	auth := r.Header.Get("Authorization")
	if len(auth) < len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(s.updateToken)) == 1
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.updater == nil {
		writeJSON(w, http.StatusNotImplemented,
			errorResponse{Error: "server is read-only (started without a data dir)"})
		return
	}
	if !s.authorized(r) {
		s.m.updatesDenied.Add(1)
		w.Header().Set("WWW-Authenticate", "Bearer")
		writeJSON(w, http.StatusUnauthorized, errorResponse{Error: "missing or wrong update token"})
		return
	}
	if s.degraded() {
		// The WAL poisoned itself: every append would fail anyway, so
		// refuse up front with the same status a born-read-only server
		// uses. Reads are unaffected; a restart recovers the log.
		s.m.updatesReadOnly.Add(1)
		writeJSON(w, http.StatusNotImplemented,
			errorResponse{Error: "server is read-only: write-ahead log poisoned by an unrecoverable append failure (restart to recover)"})
		return
	}
	// MaxBytesReader stays in front of readString's own limit: it is
	// what closes the connection on an oversized body.
	src, err := readString(http.MaxBytesReader(w, r.Body, maxUpdateBytes), maxUpdateBytes)
	if err != nil {
		s.m.updatesBad.Add(1)
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "update body unreadable or over the size limit"})
		return
	}
	ops, err := sparql.ParseUpdate(src)
	if err != nil {
		s.m.updatesBad.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if !s.acquire(w, prioNormal) {
		return
	}
	defer s.freeSlot()

	ctx := chaos.With(r.Context(), s.chaos)
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	gen, added, removed, err := s.updater.ApplyUpdate(ctx, ops)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			if r.Context().Err() != nil {
				return // client went away; nothing useful to write
			}
			s.m.requestsTimeout.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error()})
			return
		}
		// The commit protocol guarantees a failed Apply changed nothing:
		// the client may retry the whole request verbatim.
		s.m.updatesFailed.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.m.updatesOK.Add(1)
	writeJSON(w, http.StatusOK, UpdateResponse{Generation: gen, Added: added, Removed: removed, Ops: len(ops)})
}
