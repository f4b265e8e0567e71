package wal

import (
	"context"
	"errors"
	"os"

	"repro/internal/chaos"
)

// logFile is a minimal append-only log over the File abstraction.
type logFile struct {
	f File
}

// rotate bypasses the file abstraction outside fs.go.
func rotate(dir string) error {
	return os.Rename(dir+"/wal.log", dir+"/wal.old") // want `raw os\.Rename outside fs\.go`
}

// missing uses an os sentinel value, which is allowed anywhere: values
// are not file operations.
func missing(err error) bool {
	return errors.Is(err, os.ErrNotExist)
}

// commit appends the record and fsyncs before acknowledging — this is
// the commit point, done right.
func (l *logFile) commit(rec []byte) error {
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	return nil
}

// ackEarly acknowledges the empty batch before the Sync below can have
// run — wrong, because this function is the commit point.
func (l *logFile) ackEarly(rec []byte) error {
	if len(rec) == 0 {
		return nil // want `success return in commit point`
	}
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	return l.f.Sync()
}

// ackUnsynced never reaches stable storage at all, yet it is the
// commit point.
func (l *logFile) ackUnsynced(rec []byte) error { // want `documented as the commit point but never calls Sync`
	_, err := l.f.Write(rec)
	return err
}

// commitChaosed fires its fault point strictly before the first byte
// and the fsync — the commit point, chaos-wrapped right.
func (l *logFile) commitChaosed(ctx context.Context, rec []byte) error {
	if err := chaos.HitCtx(ctx, "wal.append"); err != nil {
		return err
	}
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	return nil
}

// commitLateFault injects after the fsync — wrong: by then the record
// is durable, so the injected "failure" errors a committed write. This
// function is the commit point.
func (l *logFile) commitLateFault(ctx context.Context, rec []byte) error {
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := chaos.HitCtx(ctx, "wal.append"); err != nil { // want `chaos fault point after the first Sync`
		return err
	}
	return nil
}

// counters is a local type whose HitCtx method is bookkeeping, not
// fault injection.
type counters struct{}

// HitCtx bumps a counter.
func (counters) HitCtx(context.Context, string) error { return nil }

// commitCounted calls a non-chaos HitCtx after the fsync — allowed:
// only internal/chaos calls are fault points. This function is the
// commit point.
func (l *logFile) commitCounted(ctx context.Context, c counters, rec []byte) error {
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := c.HitCtx(ctx, "wal.append"); err != nil {
		return err
	}
	return nil
}
