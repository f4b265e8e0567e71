package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// stageTrace and answerResp are the parts of the /v1/answer wire
// contract the benchmark reads. They are declared here, not imported
// from internal/qaserve: the benchmark observes the server from
// outside, as a client would.
type stageTrace struct {
	Stage           string  `json:"stage"`
	DurationMS      float64 `json:"duration_ms"`
	Candidates      int     `json:"candidates"`
	PlanCacheHits   uint64  `json:"plan_cache_hits"`
	PlanCacheMisses uint64  `json:"plan_cache_misses"`
	PlanResultHits  uint64  `json:"plan_result_hits"`
	RankSorts       uint64  `json:"rank_sorts"`
}

type answerResp struct {
	Status   string       `json:"status"`
	Answers  []string     `json:"answers"`
	CacheHit bool         `json:"cache_hit"`
	Trace    []stageTrace `json:"trace"`
}

type updateResp struct {
	Generation uint64 `json:"generation"`
	Added      int    `json:"added"`
	Removed    int    `json:"removed"`
}

// tally is what one closed-loop phase observed.
type tally struct {
	elapsed   time.Duration
	attempted int
	failed    int
	firstErr  error
	latencies []float64 // ms, client-observed, every request that got a reply
	window    []int32   // the one-second window each latency's reply completed in
	windows   []int     // correct completions per full one-second window
}

func (t *tally) correct() int { return t.attempted - t.failed }

// sortedLatencies returns the latencies in ascending order.
func (t *tally) sortedLatencies() []float64 {
	s := append([]float64(nil), t.latencies...)
	sort.Float64s(s)
	return s
}

// windowPercentiles returns the q-quantile latency of every full
// one-second window that saw at least minSamples replies.
func (t *tally) windowPercentiles(q float64, minSamples int) []float64 {
	per := make([][]float64, len(t.windows))
	for i, w := range t.window {
		if int(w) < len(per) {
			per[w] = append(per[w], t.latencies[i])
		}
	}
	var out []float64
	for _, lats := range per {
		if len(lats) >= minSamples {
			sort.Float64s(lats)
			out = append(out, percentile(lats, q))
		}
	}
	return out
}

// closedLoop runs op from `clients` goroutines, each issuing its next
// operation only after the previous one returned, so a slow server
// receives less load and no queue forms in front of it. Operation
// numbers come from next, which outlives the phase: the following phase
// continues the stream where this one stopped. The phase ends when
// next reaches limit (limit > 0) or after dur (limit == 0). op reports
// the client-observed latency and whether the reply was correct.
func closedLoop(ctx context.Context, clients int, next *atomic.Int64, limit int64, dur time.Duration,
	op func(client int, i int64) (time.Duration, error)) tally {
	start := time.Now()
	deadline := start.Add(dur)
	nWindows := int(dur / time.Second)
	per := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &per[c]
			t.windows = make([]int, nWindows)
			for ctx.Err() == nil {
				if limit == 0 && !time.Now().Before(deadline) {
					return
				}
				i := next.Add(1) - 1
				if limit > 0 && i >= limit {
					return
				}
				lat, err := op(c, i)
				w := int(time.Since(start) / time.Second)
				t.attempted++
				if lat > 0 {
					t.latencies = append(t.latencies, float64(lat)/float64(time.Millisecond))
					t.window = append(t.window, int32(w))
				}
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
					continue
				}
				if w < nWindows {
					t.windows[w]++
				}
			}
		}(c)
	}
	wg.Wait()
	if limit > 0 {
		next.Store(limit) // every client overshot by one
	}
	total := tally{elapsed: time.Since(start), windows: make([]int, nWindows)}
	for _, t := range per {
		total.attempted += t.attempted
		total.failed += t.failed
		if total.firstErr == nil {
			total.firstErr = t.firstErr
		}
		total.latencies = append(total.latencies, t.latencies...)
		total.window = append(total.window, t.window...)
		for w, n := range t.windows {
			total.windows[w] += n
		}
	}
	return total
}

// tracedRequest is the raw material of one request's spans: when the
// client sent it, when the reply was complete, and the server's own
// stage records from the reply.
type tracedRequest struct {
	ID     int64
	Start  time.Time
	End    time.Time
	Stages []stageTrace
}

// asker drives /v1/answer with one question stream against one server
// and checks every reply against the oracle.
type asker struct {
	base   string
	client *http.Client
	bodies [][]byte
	expect []expected
	next   atomic.Int64 // stream position, carried across phases

	hits atomic.Int64 // replies served by the answer cache

	// Per-phase switches, set between phases only.
	trace  bool // keep a tracedRequest per reply
	mu     sync.Mutex
	traced []tracedRequest
	served map[int][]string // answers by stream index, when non-nil
}

func newAsker(base string, clients int, questions []string, expect []expected) *asker {
	return &asker{
		base:   base,
		client: &http.Client{Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}},
		bodies: questionBodies(questions),
		expect: expect,
	}
}

func (a *asker) close() { a.client.CloseIdleConnections() }

// post sends one request and reads the whole reply into buf, timing
// from just before the send to the last byte of the reply.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) (status int, start, end time.Time, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, start, end, err
	}
	req.Header.Set("Content-Type", "application/json")
	start = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, start, end, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end = time.Now()
	return resp.StatusCode, start, end, err
}

// ask is the closedLoop operation for questions.
func (a *asker) ask(bufs []bytes.Buffer) func(client int, i int64) (time.Duration, error) {
	return func(client int, i int64) (time.Duration, error) {
		q := int(i % int64(len(a.bodies)))
		buf := &bufs[client]
		status, start, end, err := post(a.client, a.base+"/v1/answer", a.bodies[q], buf)
		if err != nil {
			return 0, fmt.Errorf("question %d: %w", q, err)
		}
		lat := end.Sub(start)
		if status != http.StatusOK {
			return lat, fmt.Errorf("question %d: HTTP %d: %s", q, status, bytes.TrimSpace(buf.Bytes()))
		}
		var resp answerResp
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			return lat, fmt.Errorf("question %d: undecodable reply: %w", q, err)
		}
		if resp.CacheHit {
			a.hits.Add(1)
		}
		if a.trace || a.served != nil {
			a.mu.Lock()
			if a.trace {
				a.traced = append(a.traced, tracedRequest{ID: i, Start: start, End: end, Stages: resp.Trace})
			}
			if a.served != nil {
				a.served[q] = resp.Answers
			}
			a.mu.Unlock()
		}
		if !a.expect[q].matches(resp.Status, resp.Answers) {
			return lat, fmt.Errorf("question %d %s: served %q %q, oracle says %q %q",
				q, a.bodies[q], resp.Status, resp.Answers, a.expect[q].status, a.expect[q].answers)
		}
		return lat, nil
	}
}

// pass asks every distinct question once (the warm-up).
func (a *asker) pass(ctx context.Context, clients int) tally {
	limit := a.next.Load() + int64(len(a.bodies))
	return closedLoop(ctx, clients, &a.next, limit, 0, a.ask(make([]bytes.Buffer, clients)))
}

// run asks for dur.
func (a *asker) run(ctx context.Context, clients int, dur time.Duration) tally {
	return closedLoop(ctx, clients, &a.next, 0, dur, a.ask(make([]bytes.Buffer, clients)))
}

// updater drives /v1/update with the pool stream from one closed-loop
// writer and checks every acknowledgement.
type updater struct {
	base    string
	client  *http.Client
	bodies  [][]byte
	next    atomic.Int64
	lastGen uint64 // last acknowledged generation; the writer is alone
}

func newUpdater(base string, seed int64) *updater {
	return &updater{
		base:   base,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		bodies: poolBodies(seed),
	}
}

func (u *updater) close() { u.client.CloseIdleConnections() }

// postUpdate sends one update body and checks the acknowledgement: 200,
// the expected added/removed counts, and a generation past every
// earlier one.
func (u *updater) postUpdate(body []byte, buf *bytes.Buffer, added, removed int) (time.Duration, error) {
	status, start, end, err := post(u.client, u.base+"/v1/update", body, buf)
	if err != nil {
		return 0, fmt.Errorf("update: %w", err)
	}
	lat := end.Sub(start)
	if status != http.StatusOK {
		return lat, fmt.Errorf("update: HTTP %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	var resp updateResp
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return lat, fmt.Errorf("update: undecodable reply: %w", err)
	}
	if resp.Added != added || resp.Removed != removed || resp.Generation <= u.lastGen {
		return lat, fmt.Errorf("update: acknowledged +%d −%d at generation %d, want +%d −%d past generation %d",
			resp.Added, resp.Removed, resp.Generation, added, removed, u.lastGen)
	}
	u.lastGen = resp.Generation
	return lat, nil
}

func (u *updater) flip(buf *bytes.Buffer) func(client int, i int64) (time.Duration, error) {
	return func(_ int, i int64) (time.Duration, error) {
		return u.postUpdate(u.bodies[i%int64(len(u.bodies))], buf, poolTriples, poolTriples)
	}
}

// pass sends one full cycle of the pool (the warm-up: both states of
// every batch get interned).
func (u *updater) pass(ctx context.Context) tally {
	limit := u.next.Load() + int64(len(u.bodies))
	return closedLoop(ctx, 1, &u.next, limit, 0, u.flip(new(bytes.Buffer)))
}

func (u *updater) run(ctx context.Context, dur time.Duration) tally {
	return closedLoop(ctx, 1, &u.next, 0, dur, u.flip(new(bytes.Buffer)))
}
