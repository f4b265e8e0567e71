// Package repro is a from-scratch Go reproduction of "Semantic Question
// Answering System over Linked Data using Relational Patterns"
// (Hakimov, Tunc, Akimaliev, Dogdu — EDBT/ICDT 2013 workshops).
//
// The system translates English questions into SPARQL queries over a
// DBpedia-like knowledge base in three stages: triple pattern extraction
// from the dependency graph (§2.1), entity/property mapping via string
// similarity, WordNet metrics and PATTY-style relational patterns
// (§2.2), and ranked answer extraction with expected-type checking
// (§2.3). Every substrate the paper depends on — the NLP stack, the
// triple store and SPARQL engine, the WordNet database, the pattern
// miner, the NED component and the knowledge base itself — is
// implemented in this module using only the Go standard library.
//
// SPARQL evaluation — every question runs a short ranked list of
// candidate queries — uses a two-layer execution model: the store
// dictionary-encodes terms to 32-bit IDs, and the executor compiles each
// query to a variable->column layout and joins flat ID rows, converting
// IDs back to terms only when results are actually read (late
// materialization). See internal/store and internal/sparql for the
// layer contracts; the *TermSpace benchmark twins in
// internal/sparql/bench_test.go measure the speedup over the retained
// term-space reference evaluator.
//
// The store publishes an immutable snapshot through an atomic pointer:
// a store.Store is the writer and every read is a store.Snapshot method,
// so readers pin a snapshot with one atomic load and scan plain memory,
// while writers fold each batch into the indexes once, by copy-on-write
// (a radix tree of 64-slot nodes over pointer-free buckets), and swap
// the root once per batch. Reads are therefore wait-free — a long join
// never stalls behind a bulk AddAll, and every query sees whole batches
// or none.
// The executor pins one snapshot per query, and results stay columnar
// end to end: sparql.Result.Rows holds flat dictionary IDs over the
// pinned terms view, internal consumers (answer ranking, the COUNT
// retry, QALD gold computation) read columns directly.
// BenchmarkBGPJoinIdle/UnderLoad measure the effect: reader latency
// under a concurrent bulk-churn writer stays within ~1.5x of the idle
// baseline, and the per-row binding maps are gone from the answer path.
//
// Each question executes inside one sparql.Session pinned to one store
// snapshot: §2.3 ranks a handful of candidate queries (4.67 a question
// on the entity stream) that differ only in a property URI or triple
// orientation, and the session is what they reuse — the System's plan
// cache (one cached shape for all the siblings; a shape holds no
// result, so every candidate runs its join and a store write leaves
// the shape valid) and each probed entity's rdf:type set. The
// executor also answers bound-variable existence patterns with sorted-ID galloping merges
// against the store's posting lists (store.Snapshot.PostingList) and
// deduplicates DISTINCT results in ID space before the final term
// sort. Differential tests pin session ≡ fresh execution and cached ≡
// uncached execution byte for byte.
//
// Inside a question the candidates run one at a time in §2.3.1 rank
// order and the first winner ends the run (internal/answer's package
// doc); context-aware execution (sparql.ExecuteCtx) stops a query
// between join steps when the request's deadline passes. Parallelism
// lives one level up: the serving layer runs whole questions across
// goroutines (HTTP connections and batch workers) — the pipeline is
// read-only after construction and the store supports parallel
// readers. The evaluation harness answers its 55 questions one at a
// time.
//
// The top layer is the pipeline with a serving surface. internal/core
// runs the paper's three sections as three stages, in order, over a
// shared Result: core.System.Compute checks the request's
// context.Context before each stage — inside §2.3 deadlines are also
// enforced between candidate queries and between join steps — and
// times each stage, with its candidate counts and cache hit/miss, into
// the Result's Trace. core.AnswerCtx is the entry point. When enabled,
// a bounded sharded LRU over normalized question text
// (internal/qacache) answers in front of the pipeline — a hit is one
// lookup and runs no stage; entries are stamped with the KB snapshot
// generation, so any store write — including a single-triple delete —
// invalidates every cached answer.
// cmd/qaserve serves the pipeline over HTTP/JSON (POST /v1/answer and
// /v1/answer/batch — batch questions fan out across a bounded worker
// pool, with every worker beyond the first charging an extra
// in-flight slot non-blockingly so a busy server shrinks the pool
// toward sequential — GET /healthz and /metrics with per-stage
// latency histograms built from the traces) with per-request
// timeouts, an in-flight limit and graceful shutdown;
// internal/qaserve holds the handlers and metrics.
//
// The serving layer also accepts live mutation, made crash-safe by a
// write-ahead log. POST /v1/update parses SPARQL UPDATE (INSERT DATA /
// DELETE DATA, sparql.ParseUpdate) and commits all operations of a
// request as one atomic store batch — readers and the generation-
// stamped cache see the whole batch or none of it. When qaserve runs
// with -data-dir, a wal.Manager owns the store's write path: each
// batch is appended to a length-prefixed, CRC-checksummed log and
// fsynced before it is applied (internal/wal/FORMAT.md documents the
// on-disk format), and the log periodically compacts into immutable
// snapshot segment files. On restart the server loads the newest valid
// segment into a store with the segment's own term IDs, replays the log
// tail onto it in place and builds the KB's ontology indexes over it,
// inferring nothing — so the restarted store holds the live one's
// triples and IDs. A torn or corrupt trailing record is treated as a
// clean end of log, so recovery always lands on a prefix of the
// committed batches (internal/wal/faultfs injects torn writes, short
// writes, fsync failures and bit flips to prove it). /healthz stays a
// pure liveness probe; /readyz answers 503 behind a boot gate until
// recovery and pipeline construction finish, and graceful shutdown
// drains requests before the final WAL fsync and checkpoint.
//
// The cross-cutting invariants those layers lean on — snapshot
// pinning in the execution packages, request-context flow down to the
// scans, WAL file ops routed through the fault-injectable FS seam and
// Sync-before-ack at the commit point, injected clocks in the
// deterministic packages, mutex-guarded field access, and (the
// unusedexport analyzer) an exported name only where non-test code,
// cmd/qaload included, calls it — are machine-checked by the project's
// own static-analysis suite (internal/lint, run by cmd/qalint and
// CI). internal/lint/INVARIANTS.md catalogues each invariant with the
// check and the reason it exists.
//
// See ROADMAP.md for the open items and the measured history,
// `go run ./cmd/qald-eval` (add -ablations for the ablation table) for
// the paper-vs-measured numbers, which integration_test.go pins for
// Table 2 (TestCrashRecoveryPreservesQALD), bench/README.md for the
// end-to-end benchmark, and bench_test.go for the per-table/figure
// regeneration harness.
package repro
