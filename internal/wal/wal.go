// Package wal makes the in-memory triple store durable: a write-ahead
// log of mutation batches plus periodic snapshot segments, with crash
// recovery that is guaranteed to land on a prefix of the committed
// batches — never on a partially applied one.
//
// # Commit protocol
//
// Every mutation reaches the store through Manager.Apply as one
// ordered batch of store.BatchOp (the shape a SPARQL UPDATE request
// parses to). Apply encodes the batch as a single length-prefixed,
// CRC32C-checksummed log record, appends it and fsyncs — that fsync is
// the commit point — and only then applies the batch to the in-memory
// store (atomically, via store.ApplyBatch) and stamps the published
// snapshot with the record's generation. A failed append rolls the log
// back to its pre-append offset and leaves the store untouched, so a
// request that was answered with an error is never replayed as if it
// had succeeded.
//
// # Segments and compaction
//
// When the log grows past Options.CompactBytes, the manager serialises
// the current immutable snapshot (term dictionary + ID triples) to a
// segment file — written to a temp name, fsynced, atomically renamed —
// and truncates the log. The two newest segments are retained so a
// media-corrupted newest segment still leaves a valid (older, but
// still prefix-consistent) baseline.
//
// # Recovery
//
// Recover loads the newest valid segment into a store with the
// segment's own term IDs and replays the log tail onto it in place:
// records at or below the segment's generation are skipped (a crash
// between segment rename and log truncation makes them redundant), and
// the first torn, short or checksum-corrupt record ends the replay as
// a clean end-of-log. The result is the store at some batch boundary —
// the newest one the durable bytes prove. Recovery applies exactly what
// the log records and infers nothing, so the recovered store holds the
// live store's triples and term IDs at that boundary. The generation
// each batch committed at is restored exactly, so clients of a
// restarted server observe a continuous generation sequence.
//
// The file layer is pluggable (FS); internal/wal/faultfs provides the
// fault-injecting in-memory implementation the recovery tests drive
// torn writes, short writes, fsync failures and bit flips through.
package wal

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/store"
)

// Options tunes a Manager.
type Options struct {
	// FS is the file layer; nil uses the process filesystem.
	FS FS
	// CompactBytes is the log size that triggers a compaction after a
	// commit. 0 means the 8 MiB default; negative disables automatic
	// compaction.
	CompactBytes int64
}

// defaultCompactBytes is the automatic compaction threshold.
const defaultCompactBytes = 8 << 20

func (o Options) fs() FS {
	if o.FS == nil {
		return OSFS()
	}
	return o.FS
}

func (o Options) compactBytes() int64 {
	if o.CompactBytes == 0 {
		return defaultCompactBytes
	}
	return o.CompactBytes
}

// Recovery is the durable state read from a data dir. Callers build
// what they need over Store (qaserve: kb.FromStore) and then attach a
// Manager to it with Open.
type Recovery struct {
	// Store holds the recovered contents (segment + replayed log tail)
	// with the segment's term IDs, published at Gen. It is nil when no
	// durable state was found: the dir is fresh, the caller builds its
	// initial store and Open bootstraps the first segment from it.
	Store *store.Store
	// Gen is the generation of the last recovered batch.
	Gen uint64
	// SegmentGen is the generation of the segment the recovery loaded
	// (0 when none).
	SegmentGen uint64
	// Records is the number of log records replayed on top of the
	// segment.
	Records int

	dir string
	o   Options
}

// Recover reads the durable state in dir (creating the dir if needed).
// It never modifies the log; torn or corrupt trailing records simply
// end the replay. See the package comment for the recovery rules.
func Recover(dir string, o Options) (*Recovery, error) {
	fsys := o.fs()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	r := &Recovery{dir: dir, o: o}

	gens := listSegments(fsys, dir)
	for i := len(gens) - 1; i >= 0 && r.Store == nil; i-- {
		// A segment that does not verify falls back to the previous one.
		if st, err := readSegment(fsys, dir, gens[i]); err == nil {
			r.Store, r.SegmentGen = st, gens[i]
		}
	}

	records, _, err := scanLog(fsys, join(dir, LogName))
	if err != nil {
		return nil, err
	}
	if r.Store == nil {
		// Open always writes a bootstrap segment before the log can
		// receive records, so "records but no segment" only arises from
		// external tampering and is treated as no durable state.
		return r, nil
	}
	r.Gen = r.SegmentGen
	// Log records describe batches applied on top of the newest
	// segment's state. If that segment was unreadable and we fell back
	// to an older one, the records' base state is lost — replaying them
	// would not reproduce any batch boundary, so they are discarded (the
	// older segment alone is still a committed prefix).
	if r.SegmentGen != gens[len(gens)-1] {
		return r, nil
	}
	for _, rec := range records {
		if rec.gen <= r.SegmentGen {
			continue // already folded into the segment
		}
		r.Store.ApplyBatch(rec.ops)
		r.Gen = rec.gen
		r.Records++
	}
	r.Store.SetGen(r.Gen)
	return r, nil
}

// Commit describes one durably applied batch.
type Commit struct {
	// Gen is the generation the batch committed at; the store's
	// published snapshot carries it.
	Gen uint64
	// Added and Removed count the triples the batch actually changed.
	Added, Removed int
}

// Manager owns the durability of one store: it is the store's sole
// writer (readers pin snapshots as usual), appends every batch to the
// log before applying it, and compacts the log into segments. Safe for
// concurrent Apply calls.
type Manager struct {
	mu      sync.Mutex
	fs      FS
	dir     string
	st      *store.Store
	log     *logFile
	gen     uint64 // last committed generation; guarded by mu
	segGen  uint64 // generation of the newest durable segment; guarded by mu
	compact int64  // log-size compaction threshold (<0 disables)
	// compactFailures counts the threshold checkpoints that did not
	// happen; read without mu, so a scrape never waits on an fsync.
	compactFailures atomic.Uint64
}

// Open attaches durability to st, which must be r.Store — or, when the
// dir was fresh, a store of the initial contents to bootstrap from.
// Open writes a fresh segment of the current state (making restarts
// independent of however the caller sourced the initial triples),
// truncates the log, and opens it for appending. From this point the
// Manager must be the store's only writer.
func (r *Recovery) Open(st *store.Store) (*Manager, error) {
	fsys := r.o.fs()
	removeTempFiles(fsys, r.dir)
	m := &Manager{
		fs:      fsys,
		dir:     r.dir,
		st:      st,
		gen:     st.Snapshot().Gen(),
		segGen:  r.SegmentGen,
		compact: r.o.compactBytes(),
	}
	_, validEnd, err := scanLog(fsys, join(r.dir, LogName))
	if err != nil {
		return nil, err
	}
	m.log, err = openLog(fsys, join(r.dir, LogName), validEnd)
	if err != nil {
		return nil, err
	}
	// Checkpoint on open: after this the newest segment alone
	// reproduces the current state, and the log is empty.
	if err := m.compactLocked(); err != nil {
		m.log.close()
		return nil, fmt.Errorf("wal: opening checkpoint: %w", err)
	}
	return m, nil
}

// Poisoned reports whether the log has entered the poisoned state: a
// failed append could not be rolled back, so every further append (and
// compaction) fails until the process restarts and recovers. The
// serving layer polls this to flip into read-only degraded mode —
// updates refuse cleanly while reads keep serving the in-memory store.
func (m *Manager) Poisoned() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.poisoned
}

// Apply durably commits one batch: log append + fsync, then the atomic
// in-memory application. The error path leaves the store unchanged.
// The context is checked before the append (an expired update request
// does no work) but never between the append and the in-memory apply —
// a batch that reached the log always reaches the store. The WAL's
// fault points (internal/chaos) read the injector ctx carries, if any.
func (m *Manager) Apply(ctx context.Context, ops []store.BatchOp) (Commit, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return Commit{}, err
	}
	// Fault point strictly before any mutation: an injected fault here
	// rejects the batch before a single log byte exists.
	if err := chaos.HitCtx(ctx, "wal.apply"); err != nil {
		return Commit{}, err
	}
	gen := m.gen + 1
	if err := m.log.append(ctx, encodeRecord(gen, ops)); err != nil {
		return Commit{}, err
	}
	m.gen = gen
	added, removed := m.st.ApplyBatch(ops)
	// Stamp the published snapshot with the logged generation even when
	// the batch was a no-op on the contents: the generation a client is
	// told must be the one recovery reproduces.
	m.st.SetGen(gen)
	c := Commit{Gen: gen, Added: added, Removed: removed}
	if m.compact > 0 && m.log.size() >= m.compact {
		// Best-effort: a failed compaction leaves the log in place and
		// is retried at the next commit; the fsynced log still proves
		// every committed batch. The fault point comes before the
		// segment write, so a fault only skips this checkpoint. Either
		// way the miss is counted (CompactionFailures).
		if chaos.HitCtx(ctx, "wal.compact") != nil || m.compactLocked() != nil {
			m.compactFailures.Add(1)
		}
	}
	return c, nil
}

// CompactionFailures returns how many checkpoints a commit's crossing
// of the log-size threshold called for and did not get: a wal.compact
// fault skipped them or the segment write or log truncation failed.
// The serving layer exports it, so a log that keeps growing because
// its checkpoints fail is visible.
func (m *Manager) CompactionFailures() uint64 {
	return m.compactFailures.Load()
}

// Compact forces a checkpoint: the current snapshot is written as a
// segment and the log is truncated. Like the checkpoints of Open and
// Close, it has no fault point.
func (m *Manager) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compactLocked()
}

// compactLocked writes the segment, truncates the log and prunes old
// segments (keeping the previous one as a corruption fallback). Caller
// holds m.mu.
func (m *Manager) compactLocked() error {
	sn := m.st.Snapshot()
	if err := writeSegment(m.fs, m.dir, sn); err != nil {
		return err
	}
	prevSeg := m.segGen
	m.segGen = sn.Gen()
	if err := m.log.reset(); err != nil {
		return err
	}
	for _, g := range listSegments(m.fs, m.dir) {
		if g != m.segGen && g != prevSeg {
			m.fs.Remove(join(m.dir, segmentName(g)))
		}
	}
	syncDir(m.fs, m.dir)
	return nil
}

// Close flushes and fsyncs the log, checkpoints the final state into a
// segment (best-effort: a failed checkpoint still leaves the fsynced
// log to recover from), and closes the log file. The Manager must not
// be used afterwards.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var firstErr error
	if err := m.log.sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if m.log.size() > int64(len(logMagic)) {
		if err := m.compactLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := m.log.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// ApplyUpdate adapts Apply to the serving layer's updater interface
// (internal/qaserve.Updater) without the import.
func (m *Manager) ApplyUpdate(ctx context.Context, ops []store.BatchOp) (gen uint64, added, removed int, err error) {
	c, err := m.Apply(ctx, ops)
	if err != nil {
		return 0, 0, 0, err
	}
	return c.Gen, c.Added, c.Removed, nil
}
