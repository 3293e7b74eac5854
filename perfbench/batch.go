package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	convoy "repro"
	"repro/internal/datagen/brinkhoff"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/lsm"
)

// batch-lsm mines the Brinkhoff city dataset at Mid scale (the paper's
// largest synthetic dataset, §6.2.3) from the k2-LSMT store with k/2-hop,
// sweeping k over 5–20% of the 500-tick timeline (Fig 8b's range).
var (
	batchKs     = []int{25, 50, 100}
	batchParams = convoy.Params{M: 3, Eps: 180}
)

// setupReps is how many times each workload builds its set-up; setup_s is
// the median.
const setupReps = 3

// brinkhoffMid is the experiments package's Mid-scale Brinkhoff dataset
// with the workload seed in place of its fixed one.
func brinkhoffMid(seed int64) *model.Dataset {
	p := brinkhoff.DefaultParams(seed)
	p.MaxTime, p.ObjBegin, p.ObjPerTick = 500, 2000, 40
	return brinkhoff.Generate(p)
}

func runBatchLSM(ctx context.Context, w *workloadEnv) error {
	rep, o := w.rep, w.opts
	// Only the dataset's size and time range outlive set-up: the in-memory
	// dataset is dropped before the measured phase, so the resident set
	// sampled there is the store's and the miner's, and regenerated from
	// the seed for the oracle afterwards.
	var (
		setups, readies []float64
		db              *lsm.DB
		nPoints         int
		ts, te          int32
		storeBytes      int64
	)
	for i := 0; i < setupReps; i++ {
		if db != nil {
			db.Close()
		}
		begin := time.Now()
		ds := brinkhoffMid(o.seed)
		nPoints = ds.NumPoints()
		ts, te = ds.TimeRange()
		dir := filepath.Join(w.dir, fmt.Sprintf("lsm-%d", i))
		if err := lsm.WriteDataset(dir, ds, nil); err != nil {
			return fmt.Errorf("materialise store: %w", err)
		}
		open := time.Now()
		var err error
		if db, err = lsm.Open(dir, nil); err != nil {
			return err
		}
		// Time to first result on a freshly opened store (cold block
		// cache), at the middle k of the sweep.
		if _, err := convoy.Mine(db, params(batchKs[1]), nil); err != nil {
			return err
		}
		readies = append(readies, time.Since(open).Seconds())
		setups = append(setups, time.Since(begin).Seconds())
		if storeBytes, err = dirBytes(dir); err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	defer db.Close()
	rep.set("setup_s", median(setups))
	rep.printf("ready: store open to first result at k=%d, median %.4f s", batchKs[1], median(readies))
	rep.set("disk_bytes_per_record", float64(storeBytes)/float64(nPoints))
	rep.printf("batch-lsm: %d points, %d ticks [%d,%d], store %d bytes (%d MiB block cache), k sweep %v, m=%d eps=%g, workers=%d",
		nPoints, te-ts+1, ts, te, storeBytes, 4, batchKs, batchParams.M, batchParams.Eps, runtime.GOMAXPROCS(0))

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	got := map[int][]string{} // first sweep's convoy keys per k
	var (
		sweeps, calls []float64
		untraced      []float64
		traced        []float64
		reports       []*convoy.K2HopReport
		ioBefore      = db.Stats().Snapshot()
		rsBefore      = db.ReadStats()
		ioAfter       storage.IOStats
		rsAfter       lsm.ReadStats
		ts0           *timingStore
	)
	// Return set-up's garbage to the OS so the sampled peak is the
	// mining phase's own.
	debug.FreeOSMemory()
	rss := sampleRSS(0, 20*time.Millisecond)
	cpu0 := selfCPU()
	start := time.Now()
	dur := time.Duration(o.seconds * float64(time.Second))
	for n := 0; n == 0 || time.Since(start) < dur; n++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// A traced run spends its second half on the timing store wrapper;
		// the difference between the halves is the tracing overhead.
		tracedHalf := tr != nil && time.Since(start) >= dur/2 && len(untraced) > 0
		var store storage.Store = db
		if tracedHalf {
			if ts0 == nil {
				ioAfter, rsAfter = db.Stats().Snapshot(), db.ReadStats()
				ts0 = newTimingStore(db, tr)
			}
			store = ts0
		}
		sweepStart := time.Now()
		for _, k := range batchKs {
			span := -1
			if tracedHalf {
				span = tr.open("core.mine", -1, int64(k))
				ts0.parent.Store(int64(span))
			}
			begin := time.Now()
			res, err := convoy.Mine(store, params(k), nil)
			if err != nil {
				return fmt.Errorf("mine k=%d: %w", k, err)
			}
			calls = append(calls, ms(time.Since(begin)))
			tr.close(span)
			if !tracedHalf {
				reports = append(reports, res.K2Hop)
			}
			keys := convoyKeys(res.Convoys)
			if first, ok := got[k]; !ok {
				got[k] = keys
			} else {
				rep.check(equalKeys(first, keys), "k=%d sweep %d differs from the first sweep", k, n)
			}
		}
		sweep := ms(time.Since(sweepStart))
		sweeps = append(sweeps, sweep)
		if tracedHalf {
			traced = append(traced, sweep)
		} else {
			untraced = append(untraced, sweep)
		}
	}
	elapsed := time.Since(start)
	cpu := selfCPU() - cpu0
	rssMed, rssPeak := rss.finish()
	rep.set("rss_mb", rssMed)
	rep.attempted += int64(len(calls))
	rep.set("latency_p50_ms", median(sweeps))
	// Per dataset point per Mine call: a denominator the code under test
	// cannot change, so fewer points read (pruning) shows as less CPU.
	rep.set("cpu_us_per_point", float64(cpu.Microseconds())/(float64(nPoints)*float64(len(calls))))
	rep.printf("measured: %d sweeps in %.2fs; mine_s=%.4f (median sweep), slowest sweep %.4fs; Mine call p50 %.1f ms, p90 %.1f ms; rss median %.1f MiB, peak %.1f MiB",
		len(sweeps), elapsed.Seconds(), median(sweeps)/1000, quantile(sweeps, 1)/1000,
		quantile(calls, 0.5), quantile(calls, 0.9), rssMed, rssPeak)

	// Oracle, outside the timed phase and outside setup_s: VCoDA* at the
	// smallest k, filtered by lifetime for the larger ones.
	oracleStart := time.Now()
	ref, err := convoy.MineDataset(brinkhoffMid(o.seed), params(batchKs[0]), &convoy.Options{Algorithm: convoy.VCoDAStar})
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for _, k := range batchKs {
		var want []model.Convoy
		for _, c := range ref.Convoys {
			if c.Len() >= k {
				want = append(want, c)
			}
		}
		rep.check(equalKeys(got[k], convoyKeys(want)), "k=%d: k/2-hop found %d convoys, VCoDA* %d", k, len(got[k]), len(want))
		rep.printf("k=%d: %d convoys (VCoDA* agrees: %v)", k, len(got[k]), equalKeys(got[k], convoyKeys(want)))
	}
	rep.printf("oracle: %.2fs (not timed)", time.Since(oracleStart).Seconds())

	if tr == nil {
		return nil
	}
	if ts0 == nil {
		ioAfter, rsAfter = db.Stats().Snapshot(), db.ReadStats()
	}
	batchLayers(rep, tr, reports, nPoints, ioBefore, ioAfter, rsBefore, rsAfter, ts0, untraced, traced)

	// The same sweep on one worker: the single-threaded baseline.
	begin := time.Now()
	for _, k := range batchKs {
		if _, err := convoy.Mine(db, params(k), &convoy.Options{Workers: 1}); err != nil {
			return err
		}
	}
	rep.set("core.workers1_mine_s", time.Since(begin).Seconds())
	rep.set("gen.late_p99_ms", 0) // closed loop: sweeps have no schedule
	return tr.write(filepath.Join(o.work, fmt.Sprintf("trace-batch-lsm-%d.json", o.seed)))
}

func params(k int) convoy.Params {
	p := batchParams
	p.K = k
	return p
}

// batchLayers turns the untraced half's reports and counters and the
// traced half's store timings into the per-layer metrics, per sweep.
func batchLayers(rep *report, tr *tracer, reports []*convoy.K2HopReport, nPoints int,
	ioBefore, ioAfter storage.IOStats, rsBefore, rsAfter lsm.ReadStats,
	ts0 *timingStore, untraced, traced []float64) {
	sweeps := float64(len(reports)) / float64(len(batchKs))
	var sum convoy.K2HopReport
	for _, r := range reports {
		sum.BenchmarkTime += r.BenchmarkTime
		sum.CandidateTime += r.CandidateTime
		sum.HWMTTime += r.HWMTTime
		sum.MergeTime += r.MergeTime
		sum.ExtendRight += r.ExtendRight
		sum.ExtendLeft += r.ExtendLeft
		sum.ValidateTime += r.ValidateTime
		sum.BenchmarkCPU += r.BenchmarkCPU
		sum.HWMTCPU += r.HWMTCPU
		sum.ExtendRightCPU += r.ExtendRightCPU
		sum.ExtendLeftCPU += r.ExtendLeftCPU
		sum.PointsProcessed += r.PointsProcessed
		sum.PreValidation += r.PreValidation
		sum.Convoys += r.Convoys
	}
	per := func(d time.Duration) float64 { return d.Seconds() / sweeps }
	rep.set("core.benchmark_s", per(sum.BenchmarkTime))
	rep.set("core.candidate_s", per(sum.CandidateTime))
	rep.set("core.hwmt_s", per(sum.HWMTTime))
	rep.set("core.merge_s", per(sum.MergeTime))
	rep.set("core.extend_right_s", per(sum.ExtendRight))
	rep.set("core.extend_left_s", per(sum.ExtendLeft))
	rep.set("core.validate_s", per(sum.ValidateTime))
	rep.set("core.benchmark_cpu_s", per(sum.BenchmarkCPU))
	rep.set("core.hwmt_cpu_s", per(sum.HWMTCPU))
	rep.set("core.extend_cpu_s", per(sum.ExtendRightCPU+sum.ExtendLeftCPU))
	rep.set("core.points_read_ratio", float64(sum.PointsProcessed)/(float64(len(reports))*float64(nPoints)))
	if sum.PreValidation > 0 {
		rep.set("core.convoys_per_candidate", float64(sum.Convoys)/float64(sum.PreValidation))
	}
	rep.set("io.points_scanned", float64(ioAfter.PointsScanned-ioBefore.PointsScanned)/sweeps)
	rep.set("io.bytes_read", float64(ioAfter.BytesRead-ioBefore.BytesRead)/sweeps)
	rep.set("io.seeks", float64(ioAfter.Seeks-ioBefore.Seeks)/sweeps)
	rep.set("lsm.bloom_hit_ratio", ratio(rsAfter.BloomHits-rsBefore.BloomHits, rsAfter.BloomMisses-rsBefore.BloomMisses))
	rep.set("lsm.block_cache_hit_ratio", ratio(rsAfter.BlockCacheHits-rsBefore.BlockCacheHits, rsAfter.BlockCacheMisses-rsBefore.BlockCacheMisses))
	rep.set("trace.overhead_ms", median(traced)-median(untraced))
	if ts0 == nil {
		return
	}
	tsweeps := float64(len(traced))
	rep.set("store.snapshot_calls", float64(ts0.snapCalls.Load())/tsweeps)
	rep.set("store.snapshot_s", time.Duration(ts0.snapNs.Load()).Seconds()/tsweeps)
	rep.set("store.fetch_calls", float64(ts0.fetchCalls.Load())/tsweeps)
	rep.set("store.fetch_s", time.Duration(ts0.fetchNs.Load()).Seconds()/tsweeps)
	rep.set("store.fetch_hit_ratio", float64(ts0.fetchHit.Load())/float64(max(ts0.fetchReq.Load(), 1)))
	// Self time: a mine span minus the union of the store calls inside
	// it; a store call has no children, so its self time is its length.
	var coreSelf time.Duration
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == "core.mine" {
			coreSelf += time.Duration(s.End - s.Start - covered(ts0.intervals(s.Start, s.End), s.Start, s.End))
		}
	}
	tr.mu.Unlock()
	rep.set("self.core_s", coreSelf.Seconds()/tsweeps)
	rep.set("self.store_s", time.Duration(ts0.snapNs.Load()+ts0.fetchNs.Load()).Seconds()/tsweeps)
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// timingStore is the Store handed to Mine in the traced half: it times
// every Snapshot and Fetch call, keeps their intervals for the self-time
// computation and records one call in storeSpanEvery as a span.
type timingStore struct {
	storage.Store
	tr                    *tracer
	parent                atomic.Int64
	snapCalls, fetchCalls atomic.Int64
	snapNs, fetchNs       atomic.Int64
	fetchReq, fetchHit    atomic.Int64
	mu                    sync.Mutex
	ivs                   [][2]int64
}

const storeSpanEvery = 64

func newTimingStore(s storage.Store, tr *tracer) *timingStore {
	return &timingStore{Store: s, tr: tr}
}

func (s *timingStore) note(name string, begin time.Time, calls *atomic.Int64, ns *atomic.Int64) {
	end := time.Now()
	n := calls.Add(1)
	ns.Add(int64(end.Sub(begin)))
	iv := [2]int64{int64(begin.Sub(s.tr.t0)), int64(end.Sub(s.tr.t0))}
	s.mu.Lock()
	s.ivs = append(s.ivs, iv)
	s.mu.Unlock()
	if n%storeSpanEvery == 0 {
		s.tr.record(name, begin, end, int(s.parent.Load()), 0)
	}
}

func (s *timingStore) Snapshot(t int32) ([]model.ObjPos, error) {
	begin := time.Now()
	out, err := s.Store.Snapshot(t)
	s.note("store.snapshot", begin, &s.snapCalls, &s.snapNs)
	return out, err
}

func (s *timingStore) Fetch(t int32, oids model.ObjSet) ([]model.ObjPos, error) {
	begin := time.Now()
	out, err := s.Store.Fetch(t, oids)
	s.note("store.fetch", begin, &s.fetchCalls, &s.fetchNs)
	s.fetchReq.Add(int64(len(oids)))
	s.fetchHit.Add(int64(len(out)))
	return out, err
}

// intervals returns the store-call intervals that start inside [lo, hi].
func (s *timingStore) intervals(lo, hi int64) [][2]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][2]int64
	for _, iv := range s.ivs {
		if iv[0] >= lo && iv[0] < hi {
			out = append(out, iv)
		}
	}
	return out
}

func convoyKeys(cs []model.Convoy) []string {
	keys := make([]string, len(cs))
	for i, c := range cs {
		keys[i] = c.Key()
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
