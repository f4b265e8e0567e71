package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/chaos"
	"repro/internal/store"
)

// logMagic opens every log file; a file without it (fresh, empty or
// with a torn first write) is treated as an empty log.
var logMagic = []byte("QAWAL001")

// errPoisoned marks a log whose file offset could not be restored
// after a failed append: further appends could land after garbage, so
// the log refuses them until the process restarts and recovers.
var errPoisoned = errors.New("wal: log poisoned by an unrecoverable append failure")

// logFile is the open append log. Appends are length-prefixed,
// CRC32C-checksummed records, fsynced before the commit is
// acknowledged. Not safe for concurrent use; the Manager serialises.
type logFile struct {
	fs       FS
	path     string
	f        File
	off      int64 // append position = end of the last durable record
	poisoned bool
}

// scanLog reads the log at path and returns every valid record in
// order plus the byte offset where the valid prefix ends. Any torn,
// short or corrupt trailing data — a partial length prefix, a length
// running past EOF or over the cap, a checksum mismatch, or an
// undecodable payload — terminates the scan at the last valid record:
// recovery treats it as a clean end of log, so a crash mid-append can
// never surface a partially applied batch. A missing file is an empty
// log.
func scanLog(fsys FS, path string) (records []logRecord, validEnd int64, err error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < len(logMagic) || string(data[:len(logMagic)]) != string(logMagic) {
		return nil, 0, nil // no (or torn) magic: empty log
	}
	off := int64(len(logMagic))
	for {
		rest := data[off:]
		if len(rest) < recordHeaderLen {
			return records, off, nil // torn header: clean end of log
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxRecordLen || int(n) > len(rest)-recordHeaderLen {
			return records, off, nil // torn/corrupt length: clean end
		}
		payload := rest[recordHeaderLen : recordHeaderLen+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return records, off, nil // corrupt record: clean end
		}
		gen, ops, derr := decodePayload(payload)
		if derr != nil {
			return records, off, nil // undecodable despite checksum: clean end
		}
		records = append(records, logRecord{gen: gen, ops: ops})
		off += int64(recordHeaderLen + int(n))
	}
}

// logRecord is one decoded log record.
type logRecord struct {
	gen uint64
	ops []store.BatchOp
}

// openLog opens the log for appending at validEnd (from a prior
// scanLog), truncating any torn tail beyond it so new records are
// never written after garbage. A fresh or empty log gets the magic
// header written and synced.
func openLog(fsys FS, path string, validEnd int64) (*logFile, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &logFile{fs: fsys, path: path, f: f}
	if validEnd < int64(len(logMagic)) {
		// Fresh, empty, or torn-magic log: rewrite from scratch.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(logMagic); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		l.off = int64(len(logMagic))
		return l, nil
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.off = validEnd
	return l, nil
}

// append writes one encoded record and fsyncs it — the commit point.
// On a write or sync failure the log rolls its offset back so the
// failed record is not left ahead of future appends; if even the
// rollback fails the log poisons itself (every later append errors)
// rather than risk interleaving records with garbage. ctx carries the
// commit's fault injector, if any.
func (l *logFile) append(ctx context.Context, rec []byte) error {
	if l.poisoned {
		return errPoisoned
	}
	// Fault point strictly before the first byte reaches the file — and
	// therefore before the commit fsync below: an injected fault fails
	// the commit cleanly, with nothing to roll back.
	if err := chaos.HitCtx(ctx, "wal.append"); err != nil {
		return err
	}
	n, werr := l.f.Write(rec)
	if werr == nil && n == len(rec) {
		if serr := l.f.Sync(); serr == nil {
			l.off += int64(len(rec))
			return nil
		} else {
			werr = fmt.Errorf("wal: sync: %w", serr)
		}
	} else if werr == nil {
		werr = fmt.Errorf("wal: short write: %d of %d bytes", n, len(rec))
	}
	// The record is not committed. Restore the file to the pre-append
	// state so the next append lands at a clean offset.
	if terr := l.f.Truncate(l.off); terr != nil {
		l.poisoned = true
		return fmt.Errorf("%w (rollback truncate failed: %v)", werr, terr)
	}
	if _, serr := l.f.Seek(l.off, io.SeekStart); serr != nil {
		l.poisoned = true
		return fmt.Errorf("%w (rollback seek failed: %v)", werr, serr)
	}
	return werr
}

// size returns the current log length in bytes.
func (l *logFile) size() int64 { return l.off }

// reset truncates the log to just the magic header (after a successful
// compaction has made its records redundant) and fsyncs.
func (l *logFile) reset() error {
	if l.poisoned {
		return errPoisoned
	}
	end := int64(len(logMagic))
	if err := l.f.Truncate(end); err != nil {
		l.poisoned = true
		return err
	}
	if _, err := l.f.Seek(end, io.SeekStart); err != nil {
		l.poisoned = true
		return err
	}
	if err := l.f.Sync(); err != nil {
		// The truncate reached the file; an unsynced truncate only means
		// stale (gen-filtered) records may reappear after a crash.
		l.off = end
		return err
	}
	l.off = end
	return nil
}

// sync flushes the log file.
func (l *logFile) sync() error { return l.f.Sync() }

// close closes the underlying file.
func (l *logFile) close() error { return l.f.Close() }
