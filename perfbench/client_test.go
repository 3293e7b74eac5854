package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	convoy "repro"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/storage"
)

// newTinyServer serves a convoyd with one shard, a one-batch queue and no
// enqueue wait, so a second message arriving while the actor is busy is
// refused with 429 queue_full.
func newTinyServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Params: convoy.Params{M: 3, K: 3, Eps: 40}, Shards: 1, QueueLen: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// heavyBatch encodes ticks whose objects all sit inside one eps-disk, so
// clustering each tick is quadratic in n and keeps the shard actor busy.
func heavyBatch(t *testing.T, t0 int32, n int) []byte {
	t.Helper()
	var body []byte
	for tt := t0; tt < t0+4; tt++ {
		pos := make([]model.ObjPos, n)
		for i := range pos {
			pos[i] = model.ObjPos{OID: int32(i), X: float64(i % 10), Y: float64(i / 10 % 10)}
		}
		var err error
		if body, err = storage.AppendBatchFrame(body, tt, pos); err != nil {
			t.Fatal(err)
		}
	}
	return body
}

// TestFlushQueueFullRetried forces 429 queue_full on a flush: two heavy
// batches go out back to back (the actor takes the first, the second fills
// the queue) and the flush follows at once. The run must retry the flush
// after Retry-After and end, with the long-poll observing the flush.
func TestFlushQueueFullRetried(t *testing.T) {
	for n := 2000; n <= 16000; n *= 2 {
		ts := newTinyServer(t)
		fr := &feedRun{name: "tiny", pattern: "convoy", path: "/v1/feeds/tiny/snapshots?pattern=convoy"}
		lane := []job{
			{feed: fr, body: heavyBatch(t, 0, n), maxTick: 3, points: 4 * n},
			{feed: fr, body: heavyBatch(t, 4, n), maxTick: 7, points: 4 * n},
			{feed: fr, flush: true},
		}
		d := newDriver(ts.URL, 1, nil)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		begin := time.Now()
		err := d.run(ctx, [][]job{lane}, []*feedRun{fr})
		cancel()
		d.close()
		if err != nil {
			t.Fatalf("run with %d objects per tick: %v", n, err)
		}
		if fr.flushed == nil && len(fr.arrivals) == 0 {
			t.Fatalf("run ended without a flush result")
		}
		if d.flushShed > 0 {
			t.Logf("flush refused %d time(s) with %d objects per tick; run ended after %v", d.flushShed, n, time.Since(begin))
			return
		}
	}
	t.Fatal("the flush was never refused with queue_full; the test did not exercise the retry")
}

// TestFirstErrorCancelsRun checks that an ingest error ends the run at
// once: the feed's poller, which would otherwise wait for a flush that
// never comes, is cancelled with it.
func TestFirstErrorCancelsRun(t *testing.T) {
	ts := newTinyServer(t)
	fr := &feedRun{name: "mixed", pattern: "convoy", path: "/v1/feeds/mixed/snapshots?pattern=convoy"}
	other := &feedRun{name: "mixed", pattern: "flock", path: "/v1/feeds/mixed/snapshots?pattern=flock"}
	lane := []job{
		{feed: fr, body: heavyBatch(t, 0, 10), maxTick: 3},
		// The feed is already a convoy feed: 409 pattern_mismatch.
		{due: 50 * time.Millisecond, feed: other, body: heavyBatch(t, 4, 10), maxTick: 7},
		{due: time.Second, feed: fr, flush: true},
	}
	d := newDriver(ts.URL, 1, nil)
	defer d.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	begin := time.Now()
	err := d.run(ctx, [][]job{lane}, []*feedRun{fr})
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("run error = %v, want the 409 ingest error", err)
	}
	if took := time.Since(begin); took > 5*time.Second {
		t.Fatalf("run took %v after the error; pollers were not cancelled", took)
	}
}
