package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The open-loop driver. Every request body is encoded before the measured
// phase starts; each request has a due time on one shared schedule and is
// timed from that due time, so a stall shows in every request it delays.
// Requests go out over at most runtime.NumCPU() sending connections; the
// only other connections are the long-polls, one per feed, parked on the
// server. Nothing here can hang: every request carries a deadline, 429s
// (ingest and flush alike) are retried after Retry-After, the first error
// cancels every sender and poller, and the caller's context bounds the
// whole run.

const (
	requestTimeout = 10 * time.Second
	pollWait       = "2s"
	pollTimeout    = 10 * time.Second
)

// job is one scheduled request.
type job struct {
	due   time.Duration // offset from the start of the phase
	feed  *feedRun      // ingest or flush target
	flush bool
	body  []byte // pre-encoded K2BI batch
	// maxTick is the largest tick in body; points its position count.
	maxTick int32
	points  int
}

// feedRun is one feed's state shared by its sender and its poller.
type feedRun struct {
	name    string
	pattern string
	path    string // ingest path; the pattern is negotiated on first use

	mu       sync.Mutex
	accepts  []accepted // in send order
	flushDue time.Time
	flushAt  time.Time
	flushed  []pattern // the flush response
	arrivals []arrival // every pattern the long-poll delivered
}

type accepted struct {
	maxTick int32
	due, at time.Time // when the batch was due to be sent, and accepted
}

type arrival struct {
	p  pattern
	at time.Time
}

// pattern is one closed pattern as the API returns it.
type pattern struct {
	Objs     []int32   `json:"objs"`
	Start    int32     `json:"start"`
	End      int32     `json:"end"`
	Clusters [][]int32 `json:"clusters,omitempty"`
}

func (p pattern) key() string {
	b, _ := json.Marshal(p)
	return string(b)
}

type convoysPage struct {
	Cursor  int       `json:"cursor"`
	Convoys []pattern `json:"convoys"`
	Flushed bool      `json:"flushed"`
}

// driver runs one schedule against one server.
type driver struct {
	base  string
	send  *http.Client
	poll  *http.Client
	tr    *tracer
	start time.Time

	mu                  sync.Mutex
	ingest              []float64 // latency in ms, from the due time
	late                []float64 // ms the generator was behind schedule
	service             []float64 // ms from sending an ingest to its answer
	attempts, shed      int64     // ingest/flush requests and their 429s
	pointsSent          int64
	flushShed, flushReq int64
}

func newDriver(base string, feeds int, tr *tracer) *driver {
	nproc := runtime.NumCPU()
	return &driver{
		base: base,
		send: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true,
		}},
		poll: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: feeds + 1, MaxIdleConnsPerHost: feeds + 1, DisableCompression: true,
		}},
		tr: tr,
	}
}

func (d *driver) close() {
	d.send.CloseIdleConnections()
	d.poll.CloseIdleConnections()
}

// group runs goroutines; the first error cancels the shared context.
type group struct {
	wg     sync.WaitGroup
	once   sync.Once
	err    error
	cancel context.CancelFunc
}

func (g *group) spawn(f func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := f(); err != nil {
			g.once.Do(func() {
				g.err = err
				g.cancel()
			})
		}
	}()
}

// run executes the schedule: lanes[i] is sent in order over connection i,
// feeds are long-polled until their flush is observed. It returns once
// every sender and poller has finished.
func (d *driver) run(ctx context.Context, lanes [][]job, feeds []*feedRun) error {
	if len(lanes) > runtime.NumCPU() {
		return fmt.Errorf("%d sending lanes exceed %d CPUs", len(lanes), runtime.NumCPU())
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	g := &group{cancel: cancel}
	for _, f := range feeds {
		g.spawn(func() error { return d.pollFeed(ctx, f) })
	}
	d.start = time.Now()
	for _, lane := range lanes {
		g.spawn(func() error {
			for i := range lane {
				if err := d.do(ctx, &lane[i]); err != nil {
					return err
				}
			}
			return nil
		})
	}
	g.wg.Wait()
	if g.err != nil {
		return g.err
	}
	return ctx.Err()
}

func (d *driver) do(ctx context.Context, j *job) error {
	due := d.start.Add(j.due)
	if !sleepCtx(ctx, time.Until(due)) {
		return ctx.Err()
	}
	late := ms(time.Since(due))
	d.mu.Lock()
	d.late = append(d.late, late)
	d.mu.Unlock()
	if j.flush {
		return d.doFlush(ctx, j.feed, due)
	}
	return d.doIngest(ctx, j, due)
}

// post sends one request, retrying 429 after its Retry-After, and returns
// the final response body and status.
func (d *driver) post(ctx context.Context, url, ctype string, body []byte, flush bool) (int, []byte, error) {
	for {
		rctx, cancel := context.WithTimeout(ctx, requestTimeout)
		req, err := http.NewRequestWithContext(rctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			cancel()
			return 0, nil, err
		}
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		resp, err := d.send.Do(req)
		if err != nil {
			cancel()
			return 0, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil {
			return 0, nil, err
		}
		d.mu.Lock()
		d.attempts++
		if flush {
			d.flushReq++
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			d.shed++
			if flush {
				d.flushShed++
			}
		}
		d.mu.Unlock()
		if resp.StatusCode != http.StatusTooManyRequests {
			return resp.StatusCode, data, nil
		}
		wait := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			wait = time.Duration(s) * time.Second
		}
		if !sleepCtx(ctx, wait) {
			return 0, nil, ctx.Err()
		}
	}
}

func (d *driver) doIngest(ctx context.Context, j *job, due time.Time) error {
	begin := time.Now()
	status, data, err := d.post(ctx, d.base+j.feed.path, "application/x-k2bi", j.body, false)
	if err != nil {
		return fmt.Errorf("ingest %s: %w", j.feed.name, err)
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("ingest %s: status %d: %s", j.feed.name, status, data)
	}
	now := time.Now()
	d.tr.record("server.ingest", begin, now, -1, int64(j.maxTick))
	j.feed.mu.Lock()
	j.feed.accepts = append(j.feed.accepts, accepted{maxTick: j.maxTick, due: due, at: now})
	j.feed.mu.Unlock()
	d.mu.Lock()
	d.service = append(d.service, ms(now.Sub(begin)))
	d.ingest = append(d.ingest, ms(now.Sub(due)))
	d.pointsSent += int64(j.points)
	d.mu.Unlock()
	return nil
}

func (d *driver) doFlush(ctx context.Context, f *feedRun, due time.Time) error {
	begin := time.Now()
	f.mu.Lock()
	f.flushDue, f.flushAt = due, begin
	f.mu.Unlock()
	status, data, err := d.post(ctx, d.base+"/v1/feeds/"+f.name+"/flush", "", nil, true)
	if err != nil {
		return fmt.Errorf("flush %s: %w", f.name, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("flush %s: status %d: %s", f.name, status, data)
	}
	d.tr.record("server.flush", begin, time.Now(), -1, 0)
	var page convoysPage
	if err := json.Unmarshal(data, &page); err != nil {
		return fmt.Errorf("flush %s: %w", f.name, err)
	}
	f.mu.Lock()
	f.flushed = page.Convoys
	f.mu.Unlock()
	return nil
}

// pollFeed long-polls one feed until its flush is observable.
func (d *driver) pollFeed(ctx context.Context, f *feedRun) error {
	cursor := 0
	for {
		rctx, cancel := context.WithTimeout(ctx, pollTimeout)
		url := fmt.Sprintf("%s/v1/feeds/%s/convoys?cursor=%d&wait=%s", d.base, f.name, cursor, pollWait)
		req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
		if err != nil {
			cancel()
			return err
		}
		resp, err := d.poll.Do(req)
		if err != nil {
			cancel()
			return fmt.Errorf("poll %s: %w", f.name, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		now := time.Now()
		if err != nil {
			return fmt.Errorf("poll %s: %w", f.name, err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			// The feed's first batch has not arrived yet.
			if !sleepCtx(ctx, 5*time.Millisecond) {
				return ctx.Err()
			}
			continue
		default:
			return fmt.Errorf("poll %s: status %d: %s", f.name, resp.StatusCode, data)
		}
		var page convoysPage
		if err := json.Unmarshal(data, &page); err != nil {
			return fmt.Errorf("poll %s: %w", f.name, err)
		}
		f.mu.Lock()
		for _, p := range page.Convoys {
			f.arrivals = append(f.arrivals, arrival{p: p, at: now})
		}
		f.mu.Unlock()
		cursor = page.Cursor
		if page.Flushed {
			return nil
		}
	}
}

// closeLags returns one sample (ms) per evidence batch: the time from the
// batch that made a pattern closable — the first whose newest tick seals
// the tick after the pattern's End through the reorder window — or the
// flush, to the last of that batch's patterns arriving on the long-poll.
// With fromDue the clock starts when the batch was due to be sent (close
// latency: the whole path from the client), otherwise when it was
// accepted (close lag). Thousands of patterns can close on one tick, so
// counting per pattern would weight one batch thousands of times.
func (f *feedRun) closeLags(window int32, fromDue bool) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	last := map[int]time.Time{} // evidence index (len(accepts) = flush) → last arrival
	for _, a := range f.arrivals {
		need := a.p.End + 1 + window
		i := sort.Search(len(f.accepts), func(i int) bool { return f.accepts[i].maxTick >= need })
		if a.at.After(last[i]) {
			last[i] = a.at
		}
	}
	var out []float64
	for i, at := range last {
		ev := f.flushAt
		switch {
		case i < len(f.accepts) && fromDue:
			ev = f.accepts[i].due
		case i < len(f.accepts):
			ev = f.accepts[i].at
		case fromDue:
			ev = f.flushDue
		}
		out = append(out, max(0, ms(at.Sub(ev))))
	}
	return out
}

// dwells returns, for every tick sent, how long it waited in the reorder
// buffer per the send timeline: from accepting its batch to accepting the
// batch whose newest tick seals it.
func (f *feedRun) dwells(window int32) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []float64
	prev := int32(-1)
	for _, a := range f.accepts {
		for t := prev + 1; t <= a.maxTick; t++ {
			j := sort.Search(len(f.accepts), func(j int) bool { return f.accepts[j].maxTick >= t+window })
			if j < len(f.accepts) {
				out = append(out, ms(f.accepts[j].at.Sub(a.at)))
			} else if !f.flushAt.IsZero() {
				out = append(out, ms(f.flushAt.Sub(a.at)))
			}
		}
		prev = a.maxTick
	}
	return out
}

// checkPolled verifies that the union of the long-polled patterns equals
// the flush set, up to patterns the server published and later superseded
// in the maximal set: every flushed pattern was polled, and every polled
// pattern missing from the flush set is covered by a flushed one.
func (f *feedRun) checkPolled() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	polled := map[string]pattern{}
	for _, a := range f.arrivals {
		polled[a.p.key()] = a.p
	}
	flushed := map[string]bool{}
	for _, p := range f.flushed {
		flushed[p.key()] = true
		if _, ok := polled[p.key()]; !ok {
			return fmt.Errorf("feed %s: flushed pattern %s never arrived on the long-poll", f.name, p.key())
		}
	}
	for k, p := range polled {
		if flushed[k] {
			continue
		}
		if !coveredBy(p, f.flushed) {
			return fmt.Errorf("feed %s: polled pattern %s is neither flushed nor superseded", f.name, k)
		}
	}
	return nil
}

func coveredBy(p pattern, set []pattern) bool {
	for _, q := range set {
		if q.Start <= p.Start && q.End >= p.End && subset(p.Objs, q.Objs) {
			return true
		}
	}
	return false
}

// subset reports whether sorted a ⊆ sorted b.
func subset(a, b []int32) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}
