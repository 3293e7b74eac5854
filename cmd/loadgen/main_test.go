package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	convoy "repro"
)

func TestParseMix(t *testing.T) {
	cycle, err := parseMix("convoy=2,flock=1,mc=1")
	if err != nil {
		t.Fatal(err)
	}
	want := []convoy.Pattern{convoy.PatternConvoy, convoy.PatternConvoy, convoy.PatternFlock, convoy.PatternMC}
	if len(cycle) != len(want) {
		t.Fatalf("cycle %v, want %v", cycle, want)
	}
	for i := range want {
		if cycle[i] != want[i] {
			t.Fatalf("cycle %v, want %v", cycle, want)
		}
	}
	if _, err := parseMix("swarm=1"); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	if _, err := parseMix("convoy=0"); err == nil {
		t.Fatal("all-zero weights accepted")
	}
}

func TestParseFlagsValidation(t *testing.T) {
	if _, err := parseFlags([]string{"-ooo", "0.5", "-window", "0"}); err == nil {
		t.Fatal("-ooo without a reorder window accepted")
	}
	if _, err := parseFlags([]string{"-burst", "sine"}); err == nil {
		t.Fatal("unknown burst profile accepted")
	}
}

func TestSummarize(t *testing.T) {
	q := summarize([]float64{40, 10, 30, 20})
	if q.Count != 4 || q.P50 != 20 || q.Max != 40 {
		t.Fatalf("quantiles %+v", q)
	}
	if z := summarize(nil); z.Count != 0 || z.Max != 0 {
		t.Fatalf("empty quantiles %+v", z)
	}
}

// TestLoadgenSmoke runs the full pipeline at miniature scale against an
// in-process server: all three pattern families, out-of-order injection,
// square-wave bursts — the artifact must come back with ingest and
// close-lag samples, correct per-pattern feed counts, and closed patterns
// in every family.
func TestLoadgenSmoke(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-feeds", "3", "-objects", "30", "-ticks", "40", "-batch", "6",
		"-pattern-mix", "convoy=1,flock=1,mc=1", "-ooo", "0.25", "-window", "2",
		"-rate", "200", "-burst", "square", "-burst-period", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	art, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := art.Loadgen
	if rep.Ingest.Count == 0 || rep.Ingest.P50 <= 0 || rep.Ingest.P99 < rep.Ingest.P50 {
		t.Fatalf("ingest quantiles: %+v", rep.Ingest)
	}
	if rep.ConvoysClosed == 0 || rep.CloseLag.Count == 0 {
		t.Fatalf("no close-lag samples: closed=%d lag=%+v", rep.ConvoysClosed, rep.CloseLag)
	}
	if rep.TicksSent != 3*40 {
		t.Fatalf("ticks_sent = %d, want %d", rep.TicksSent, 3*40)
	}
	if rep.PointsSent == 0 {
		t.Fatal("no points sent")
	}
	for _, pat := range []string{"convoy", "flock", "mc"} {
		pc, ok := rep.Patterns[pat]
		if !ok || pc.LiveFeeds != 1 {
			t.Fatalf("pattern %s: %+v (patterns: %+v)", pat, pc, rep.Patterns)
		}
		if pc.ClosedTotal == 0 {
			t.Fatalf("pattern %s closed nothing — load data too sparse", pat)
		}
	}
	if rep.PeakRSSBytes == 0 {
		t.Log("peak_rss_bytes unavailable (no /proc)") // best-effort field
	}
	if rep.WallNs <= 0 {
		t.Fatalf("wall_ns = %d", rep.WallNs)
	}
}

// flushProxy serves an in-process convoyd behind a proxy that answers a
// feed's n-th flush attempt (n from 0) with status(n) in the server's error
// shape — a 429 is queue_full with Retry-After, as a full shard queue
// answers — or passes it through when status(n) is 0. It returns the
// proxy's base URL.
func flushProxy(t *testing.T, cfg config, status func(n int) int) string {
	t.Helper()
	base, shutdown, err := startInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	target, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	var mu sync.Mutex
	attempts := map[string]int{}
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/flush") {
			mu.Lock()
			n := attempts[r.URL.Path]
			attempts[r.URL.Path]++
			mu.Unlock()
			if code := status(n); code != 0 {
				w.Header().Set("Content-Type", "application/json")
				errCode := "internal"
				if code == http.StatusTooManyRequests {
					w.Header().Set("Retry-After", "1")
					errCode = "queue_full"
				}
				w.WriteHeader(code)
				fmt.Fprintf(w, `{"error":"injected by flushProxy","code":%q}`+"\n", errCode)
				return
			}
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	return proxy.URL
}

// runWithin runs cfg and fails the test if the run has not ended after d.
func runWithin(t *testing.T, cfg config, d time.Duration) (*artifact, error) {
	t.Helper()
	type result struct {
		art *artifact
		err error
	}
	done := make(chan result, 1)
	go func() {
		art, err := run(cfg)
		done <- result{art, err}
	}()
	select {
	case r := <-done:
		return r.art, r.err
	case <-time.After(d):
		t.Fatalf("run still going after %v: it hangs", d)
		return nil, nil
	}
}

func smallConfig(t *testing.T) config {
	t.Helper()
	cfg, err := parseFlags([]string{"-feeds", "3", "-objects", "20", "-ticks", "24", "-batch", "8", "-pattern-mix", "convoy=1,flock=1,mc=1"})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// A flush answered 429 queue_full is retried after Retry-After, as ingest
// is, so the run completes; it used to end the feed's worker while its
// poller waited forever for the flush.
func TestLoadgenFlushQueueFullRetried(t *testing.T) {
	cfg := smallConfig(t)
	cfg.addr = flushProxy(t, cfg, func(n int) int {
		if n == 0 {
			return http.StatusTooManyRequests
		}
		return 0
	})
	art, err := runWithin(t, cfg, time.Minute)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := art.Loadgen.Shed.HTTP429; got < int64(cfg.feeds) {
		t.Fatalf("http_429 = %d, want at least one shed flush per feed (%d)", got, cfg.feeds)
	}
	if art.Loadgen.TicksSent != int64(cfg.feeds*cfg.ticks) {
		t.Fatalf("ticks_sent = %d", art.Loadgen.TicksSent)
	}
}

// A flush that fails for good fails the run promptly: the failing worker
// cancels the pollers, which would otherwise long-poll for a flush that
// never comes.
func TestLoadgenFlushFailureEndsRun(t *testing.T) {
	cfg := smallConfig(t)
	cfg.addr = flushProxy(t, cfg, func(int) int { return http.StatusInternalServerError })
	_, err := runWithin(t, cfg, time.Minute)
	if err == nil || !strings.Contains(err.Error(), "flush status 500") {
		t.Fatalf("run error = %v, want the flush failure", err)
	}
}
