package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	convoy "repro"
	"repro/internal/cmc"
	"repro/internal/dbscan"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/archive"
)

// stream-convoy: a durable convoyd (log + archive, its shipped defaults:
// persist every 2 s, 250 ms enqueue wait, 8 shards, 128-batch queues)
// takes open-loop K2BI ingest from convoy feeds at a fixed rate.
var (
	streamParams  = convoy.Params{M: 3, K: 3, Eps: 40}
	streamWindow  = int32(4)
	streamTraffic = traffic{
		name: "city", pattern: "convoy", feeds: 8, objects: 150, perTick: 3,
		tickRate: 20, batchTicks: 16, ooo: 0.1,
	}
)

// convoydArgs are the flags the benchmark adds to convoyd's defaults: the
// log and archive paths, the reorder window and the mining parameters of
// the generated traffic.
func convoydArgs(dir string, p convoy.Params) []string {
	return []string{
		"-persist", filepath.Join(dir, "closed.k2cl"),
		"-archive-dir", filepath.Join(dir, "archive"),
		"-window", strconv.Itoa(int(streamWindow)),
		"-m", strconv.Itoa(p.M), "-k", strconv.Itoa(p.K), "-eps", strconv.FormatFloat(p.Eps, 'g', -1, 64),
	}
}

func runStreamConvoy(ctx context.Context, w *workloadEnv) error {
	rep, o := w.rep, w.opts
	tf := streamTraffic
	tf.ticks = int(tf.tickRate * o.seconds)
	var (
		setups []float64
		inputs []*feedInput
		d      *daemon
		dir    string
	)
	for i := 0; i < setupReps; i++ {
		begin := time.Now()
		dir = filepath.Join(w.dir, fmt.Sprintf("convoyd-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var err error
		d, _, err = startConvoyd(ctx, o.convoyd, filepath.Join(dir, "convoyd.log"), convoydArgs(dir, streamParams)...)
		if err != nil {
			return err
		}
		if inputs, err = tf.generate(o.seed); err != nil {
			d.kill()
			return err
		}
		setups = append(setups, time.Since(begin).Seconds())
		if i < setupReps-1 {
			if err := d.stop(); err != nil {
				return err
			}
			os.RemoveAll(dir)
		}
	}
	defer d.kill()
	rep.set("setup_s", median(setups))
	points := totalPoints(inputs)
	rep.printf("stream-convoy: %d convoy feeds x %d ticks, %d points (%.0f points/s offered), %d batches of %d ticks, %.0f%% adjacent-tick disorder, window %d, m=%d k=%d eps=%g",
		tf.feeds, tf.ticks, points, float64(points)/o.seconds, len(inputs)*len(inputs[0].jobs), tf.batchTicks, tf.ooo*100,
		streamWindow, streamParams.M, streamParams.K, streamParams.Eps)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	drv, sv, err := serve(ctx, w, d, tr, lanes(inputs), feedRuns(inputs))
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}

	// Disk: the convoy log plus the archive, per logged convoy.
	var logged int64
	if _, err := storage.ScanConvoyLog(filepath.Join(dir, "closed.k2cl"), func(r storage.LoggedConvoy) error {
		if !storage.IsFlushMarker(r.Convoy) {
			logged++
		}
		return nil
	}); err != nil {
		return fmt.Errorf("scan log: %w", err)
	}
	diskBytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	logBytes, err := dirBytes(filepath.Join(dir, "closed.k2cl"))
	if err != nil {
		return err
	}
	diskBytes -= fileSize(filepath.Join(dir, "convoyd.log"))
	rep.set("disk_bytes_per_record", float64(diskBytes)/float64(max(logged, 1)))
	rep.printf("disk: %d convoys logged, log %d bytes, log+archive %d bytes", logged, logBytes, diskBytes)

	// Correctness: each feed's flush equals batch PCCD on the same ticks,
	// and its long-polled patterns union to the flush set.
	var flushed int
	for _, in := range inputs {
		res, err := convoy.MineDataset(in.ds, streamParams, &convoy.Options{Algorithm: convoy.PCCD})
		if err != nil {
			return err
		}
		want := make([]pattern, len(res.Convoys))
		for i, c := range res.Convoys {
			want[i] = pattern{Objs: c.Objs, Start: c.Start, End: c.End}
		}
		checkFeed(rep, in.run, want)
		flushed += len(in.run.flushed)
	}
	rep.check(int64(flushed) <= logged, "%d flushed convoys but only %d logged", flushed, logged)
	var closeLat []float64
	for _, in := range inputs {
		closeLat = append(closeLat, in.run.closeLags(streamWindow, true)...)
	}
	rep.set("latency_p50_ms", quantile(closeLat, 0.5))
	rep.printf("close latency (from the evidence batch's due time) p50 %.3f ms, p90 %.3f ms, p99 %.3f ms",
		quantile(closeLat, 0.5), quantile(closeLat, 0.9), quantile(closeLat, 0.99))
	serverReport(rep, drv, sv, inputs, streamWindow)

	if tr == nil {
		return nil
	}
	// convoyd syncs its log every 2 s; the replay syncs once per 2 s of
	// traffic. The replay runs untraced, traced, traced, untraced, so
	// warm-up and drift fall on both sides alike; the traced minus the
	// untraced mean is the tracing overhead. The first traced replay
	// records into a tracer of its own, which is discarded.
	syncEvery := max(1, int(2*tf.tickRate)/tf.batchTicks)
	var untraced, traced time.Duration
	for i, rtr := range []*tracer{nil, newTracer(), tr, nil} {
		begin := time.Now()
		if err := replayConvoy(ctx, rtr, inputs, filepath.Join(w.dir, fmt.Sprintf("replay-%d", i)), syncEvery); err != nil {
			return err
		}
		if rtr == nil {
			untraced += time.Since(begin)
		} else {
			traced += time.Since(begin)
		}
	}
	rep.set("trace.overhead_ms", ms(traced-untraced)/2)
	rep.printf("replay: untraced %.3f s, traced %.3f s (mean of 2 each)", untraced.Seconds()/2, traced.Seconds()/2)
	for _, name := range []string{"storage.k2bi_decode", "dbscan.step", "cmc.step", "storage.log_append",
		"storage.log_sync", "archive.add", "archive.flush"} {
		rep.set(name+"_s", tr.total(name).Seconds())
	}
	rep.set("storage.log_bytes", tr.counter("storage.log_bytes"))
	rep.set("archive.bytes", tr.counter("archive.bytes"))

	// The restart and query layers, by direct calls: the log scan and
	// archive backfill of a 200k-record history, the query mix, and the
	// flock and moving-cluster miners.
	hdir := filepath.Join(w.dir, "history")
	if err := os.MkdirAll(hdir, 0o755); err != nil {
		return err
	}
	if err := writeHistory(filepath.Join(hdir, "closed.k2cl"), o.seed); err != nil {
		return fmt.Errorf("write history: %w", err)
	}
	var patternFeeds []*feedInput
	for _, ptf := range rqTraffic {
		ptf.ticks = int(ptf.tickRate * o.seconds)
		in, err := ptf.generate(o.seed)
		if err != nil {
			return err
		}
		patternFeeds = append(patternFeeds, in...)
	}
	queries := queryMix(o.seed, int(queryRate*o.seconds))
	if err := replayRestart(tr, rep, hdir, filepath.Join(w.dir, "history-copy"), queries, patternFeeds); err != nil {
		return err
	}
	setSelfTimes(rep, tr)
	return tr.write(filepath.Join(o.work, fmt.Sprintf("trace-stream-convoy-%d.json", o.seed)))
}

// served is what one measured server phase observed besides the driver's
// own samples.
type served struct {
	cpu     time.Duration
	rssMed  float64 // convoyd's median resident set over the phase
	rssPeak float64
	backlog *backlog
	grew    bool
}

// serve runs the schedule against d while sampling /v1/stats, and
// measures convoyd's CPU and resident set over the phase.
func serve(ctx context.Context, w *workloadEnv, d *daemon, tr *tracer, ls [][]job, feeds []*feedRun) (*driver, *served, error) {
	drv := newDriver(d.base, len(feeds), tr)
	defer drv.close()
	sv := &served{}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, nil, err
	}
	sv.backlog = sampleBacklog(ctx, drv.poll, d.base, time.Duration(w.opts.seconds*float64(time.Second)))
	rss := sampleRSS(d.pid(), 50*time.Millisecond)
	restoreGC := quietGC()
	runErr := drv.run(ctx, ls, feeds)
	restoreGC()
	sv.rssMed, sv.rssPeak = rss.finish()
	grew, statErr := sv.backlog.finish()
	if runErr != nil {
		return nil, nil, runErr
	}
	if statErr != nil {
		return nil, nil, fmt.Errorf("sample /v1/stats: %w", statErr)
	}
	sv.grew = grew
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, nil, err
	}
	sv.cpu = cpu1 - cpu0
	return drv, sv, nil
}

// checkFeed compares a feed's flush with its oracle and its long-poll.
func checkFeed(rep *report, fr *feedRun, want []pattern) {
	got := make([]string, len(fr.flushed))
	for i, p := range fr.flushed {
		got[i] = p.key()
	}
	exp := make([]string, len(want))
	for i, p := range want {
		exp[i] = p.key()
	}
	sort.Strings(got)
	sort.Strings(exp)
	rep.check(equalKeys(got, exp), "feed %s: flush has %d patterns, batch oracle %d", fr.name, len(got), len(exp))
	err := fr.checkPolled()
	rep.check(err == nil, "%v", err)
}

// serverReport sets the server metrics and prints the per-stage figures
// (ingest_*, close_lag_*, shed_ratio, backlog) by name.
func serverReport(rep *report, drv *driver, sv *served, inputs []*feedInput, window int32) {
	var lags, dwells []float64
	for _, in := range inputs {
		lags = append(lags, in.run.closeLags(window, false)...)
		dwells = append(dwells, in.run.dwells(window)...)
	}
	rep.attempted += drv.attempts
	rep.set("cpu_us_per_point", float64(sv.cpu.Microseconds())/float64(max(drv.pointsSent, 1)))
	rep.set("rss_mb", sv.rssMed)
	shed := float64(drv.shed) / float64(max(drv.attempts, 1))
	rep.printf("ingest_p50_ms=%.3f ingest_p90_ms=%.3f ingest_p99_ms=%.3f (%d batches)  close_lag_p50_ms=%.3f close_lag_p90_ms=%.3f close_lag_p99_ms=%.3f (%d evidence batches)",
		quantile(drv.ingest, 0.5), quantile(drv.ingest, 0.9), quantile(drv.ingest, 0.99), len(drv.ingest),
		quantile(lags, 0.5), quantile(lags, 0.9), quantile(lags, 0.99), len(lags))
	rep.printf("cpu_us_per_point=%.4f (convoyd %.2fs CPU, %d points)  rss median %.1f MiB, peak_rss_mb=%.1f  shed_ratio=%.4f (%d/%d, flush %d/%d)",
		float64(sv.cpu.Microseconds())/float64(max(drv.pointsSent, 1)), sv.cpu.Seconds(), drv.pointsSent, sv.rssMed, sv.rssPeak,
		shed, drv.shed, drv.attempts, drv.flushShed, drv.flushReq)
	rep.printf("generator late p50 %.3f ms, p99 %.3f ms; service time (send to answer) p50 %.3f ms; backlog max: shard queues %d, pending ticks %d, archive queue %d; backlog grew: %v",
		quantile(drv.late, 0.5), quantile(drv.late, 0.99), quantile(drv.service, 0.5), sv.backlog.queueMax, sv.backlog.pendingMax, sv.backlog.archMax, sv.grew)
	rep.set("gen.late_p99_ms", quantile(drv.late, 0.99))
	rep.set("reorder.dwell_p50_ms", quantile(dwells, 0.5))
	rep.set("server.queue_len_max", float64(sv.backlog.queueMax))
	rep.set("server.pending_ticks_max", float64(sv.backlog.pendingMax))
	rep.set("archive.index_lag_max", float64(sv.backlog.archMax))
	rep.set("server.shed_ratio", shed)
	rep.set("admission.queue_full_total", float64(sv.backlog.queueFull))
}

// setSelfTimes reports each layer's self time from the kept spans.
func setSelfTimes(rep *report, tr *tracer) {
	for layer, d := range tr.selfTimes() {
		rep.set("self."+layer+"_s", d.Seconds())
	}
}

// replayConvoy feeds the same generated bodies through each layer's
// public functions in process — K2BI decode, incremental DBSCAN, the CMC
// sweep, the convoy log and the archive — with one span per call, so each
// layer's share of the server's work can be read off.
func replayConvoy(ctx context.Context, tr *tracer, inputs []*feedInput, dir string, syncEvery int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	logPath := filepath.Join(dir, "closed.k2cl")
	lg, err := storage.CreateConvoyLog(logPath)
	if err != nil {
		return err
	}
	defer lg.Close()
	arch, err := archive.Open(filepath.Join(dir, "archive"), nil)
	if err != nil {
		return err
	}
	defer arch.Close()
	type state struct {
		inc *dbscan.Incremental
		mn  *cmc.Miner
	}
	states := make([]state, len(inputs))
	for i := range states {
		inc, err := dbscan.NewIncremental(streamParams.Eps, streamParams.M)
		if err != nil {
			return err
		}
		states[i] = state{inc: inc, mn: cmc.NewMiner(streamParams.M, streamParams.K)}
	}
	// Sync and hand to the archive every syncEvery batch rounds, as
	// convoyd's persistence tick does once per interval.
	var pending []storage.LoggedConvoy
	rounds := len(inputs[0].jobs)
	reader := storage.NewBatchFrameReader(nil)
	for b := 0; b < rounds; b++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		for i, in := range inputs {
			if b >= len(in.jobs) || in.jobs[b].flush {
				continue
			}
			st := states[i]
			root := tr.open("replay.batch", -1, int64(b))
			begin := time.Now()
			reader.Reset(bytes.NewReader(in.jobs[b].body))
			var ticks []tick
			for {
				t, pos, err := reader.Next(nil)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					return err
				}
				ticks = append(ticks, tick{t, pos})
			}
			tr.record("storage.k2bi_decode", begin, time.Now(), root, int64(b))
			sort.Slice(ticks, func(a, c int) bool { return ticks[a].t < ticks[c].t })
			for _, tk := range ticks {
				begin = time.Now()
				cl := st.inc.Step(tk.pos)
				mid := time.Now()
				tr.record("dbscan.step", begin, mid, root, int64(b))
				st.mn.Step(tk.t, cl)
				tr.record("cmc.step", mid, time.Now(), root, int64(b))
			}
			closed := st.mn.Drain()
			begin = time.Now()
			for _, c := range closed {
				rec := storage.LoggedConvoy{Feed: in.run.name, Convoy: c}
				if err := lg.AppendRecord(rec); err != nil {
					return err
				}
				pending = append(pending, rec)
			}
			tr.record("storage.log_append", begin, time.Now(), root, int64(b))
			tr.close(root)
		}
		if (b+1)%syncEvery != 0 && b != rounds-1 {
			continue
		}
		begin := time.Now()
		if err := lg.Sync(); err != nil {
			return err
		}
		tr.record("storage.log_sync", begin, time.Now(), -1, int64(b))
		begin = time.Now()
		if err := arch.AddBatch(pending); err != nil {
			return err
		}
		tr.record("archive.add", begin, time.Now(), -1, int64(b))
		pending = pending[:0]
	}
	begin := time.Now()
	if err := arch.Flush(); err != nil {
		return err
	}
	tr.record("archive.flush", begin, time.Now(), -1, 0)
	tr.add("storage.log_bytes", float64(lg.Offset()))
	ab, err := dirBytes(filepath.Join(dir, "archive"))
	if err != nil {
		return err
	}
	tr.add("archive.bytes", float64(ab))
	return nil
}

type tick struct {
	t   int32
	pos []model.ObjPos
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
