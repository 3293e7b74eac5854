package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	convoy "repro"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/archive"
)

// The restart and query layers are timed in the traced stream-convoy run by
// direct calls on a generated convoy history: a log scan, an archive
// backfill of the history, a mix of archive queries over hot and cold keys,
// and low-rate flock and moving-cluster feeds through their streaming
// miners.
//
// The history's ticks start at histBase and its object ids at histOidBase,
// apart from any live feed's.
const (
	histRecords  = 200000
	histFeeds    = 64
	histBase     = 1_000_000
	histSpan     = 20000 // ticks the history covers
	histOidBase  = 10_000_000
	histUniverse = 50000 // distinct history objects
	queryRate    = 25    // queries per second of traffic replayed
	// pageLimit is the page size of every query.
	pageLimit = 1000
	hotShare  = 0.7
)

var rqTraffic = []traffic{
	{name: "flock", pattern: "flock", feeds: 2, objects: 100, perTick: 2, tickRate: 10, batchTicks: 4},
	{name: "mc", pattern: "mc", feeds: 2, objects: 100, perTick: 2, tickRate: 10, batchTicks: 4},
}

// writeHistory writes the history through the convoy log's public API.
// Members are drawn from a Zipf distribution, so a few objects sit in many
// convoys (hot keys) and most in few.
func writeHistory(path string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, histUniverse-1)
	lg, err := storage.CreateConvoyLog(path)
	if err != nil {
		return err
	}
	for i := 0; i < histRecords; i++ {
		end := int32(histBase + i*histSpan/histRecords)
		dur := int32(3 + rng.Intn(30))
		size := 3 + rng.Intn(3) + rng.Intn(6)
		ids := make([]int32, 0, size)
		for len(ids) < size {
			id := histOidBase + int32(zipf.Uint64())
			if !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
		}
		feed := fmt.Sprintf("hist-%02d", rng.Intn(histFeeds))
		if err := lg.Append(feed, model.Convoy{Objs: model.NewObjSet(ids...), Start: end - dur + 1, End: end}); err != nil {
			lg.Close()
			return err
		}
	}
	if err := lg.Sync(); err != nil {
		lg.Close()
		return err
	}
	return lg.Close()
}

// querySpec is one archive query.
type querySpec struct {
	shape          string // time, object or convoys
	from, to       int32
	oid            int32
	minSize, minDr int
}

func (q *querySpec) query() archive.Query {
	return archive.Query{MinSize: q.minSize, MinDur: q.minDr, Limit: pageLimit}
}

// queryMix draws n queries rotating the three shapes, hotShare of them on
// hot keys (Zipf-popular objects, the most recent windows, common sizes)
// and the rest on cold ones (uniform objects, old windows, rare sizes).
func queryMix(seed int64, n int) []*querySpec {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	zipf := rand.NewZipf(rng, 1.1, 1, histUniverse-1)
	maxEnd := int32(histBase + (histRecords-1)*histSpan/histRecords)
	out := make([]*querySpec, n)
	for i := range out {
		q := &querySpec{shape: []string{"time", "object", "convoys"}[i%3]}
		hot := rng.Float64() < hotShare
		switch {
		case q.shape == "time" && hot:
			q.to = maxEnd - int32(rng.Intn(200))
			q.from = q.to - 50
		case q.shape == "time":
			q.from = histBase + int32(rng.Intn(histSpan/2))
			q.to = q.from + 50
		case q.shape == "object" && hot:
			q.oid = histOidBase + int32(zipf.Uint64())
		case q.shape == "object":
			q.oid = histOidBase + int32(rng.Intn(histUniverse))
		case hot:
			q.minSize, q.minDr = 3+rng.Intn(3), 5+rng.Intn(10)
		default:
			q.minSize, q.minDr = 9+rng.Intn(3), 25+rng.Intn(8)
		}
		out[i] = q
	}
	return out
}

// replayRestart times the restart and query layers by direct calls: a
// log scan, OpenAndBackfill on a copy of the directories, the queries
// against that archive, and the flock and moving-cluster feeds' ticks
// through their streaming miners.
func replayRestart(tr *tracer, rep *report, dir, copyDir string, queries []*querySpec, inputs []*feedInput) error {
	logPath := filepath.Join(dir, "closed.k2cl")
	begin := time.Now()
	if _, err := storage.ScanConvoyLog(logPath, func(storage.LoggedConvoy) error { return nil }); err != nil {
		return err
	}
	tr.record("storage.log_scan", begin, time.Now(), -1, 0)
	rep.set("storage.log_scan_s", time.Since(begin).Seconds())

	if err := os.CopyFS(copyDir, os.DirFS(dir)); err != nil {
		return fmt.Errorf("copy history: %w", err)
	}
	begin = time.Now()
	arch, _, _, err := archive.OpenAndBackfill(filepath.Join(copyDir, "archive"), filepath.Join(copyDir, "closed.k2cl"), nil)
	if err != nil {
		return err
	}
	defer arch.Close()
	tr.record("archive.open_backfill", begin, time.Now(), -1, 0)
	rep.set("archive.open_backfill_s", time.Since(begin).Seconds())

	st0 := arch.Stats()
	lat := map[string][]float64{}
	var scanned, results int
	for i, q := range queries {
		begin := time.Now()
		var res archive.Result
		switch q.shape {
		case "time":
			res, err = arch.QueryTime(q.from, q.to, q.query())
		case "object":
			res, err = arch.QueryObject(q.oid, q.query())
		default:
			res, err = arch.QueryConvoys(q.query())
		}
		if err != nil {
			return err
		}
		tr.record("archive.query_"+q.shape, begin, time.Now(), -1, int64(i))
		lat[q.shape] = append(lat[q.shape], time.Since(begin).Seconds())
		scanned += res.Scanned
		results += len(res.Records)
	}
	st1 := arch.Stats()
	for _, shape := range []string{"time", "object", "convoys"} {
		rep.set("archive.query_"+shape+"_s", median(lat[shape]))
	}
	rep.set("archive.entries_per_result", float64(scanned)/float64(max(results, 1)))
	rep.set("archive.records_read", float64(st1.RecordsRead-st0.RecordsRead))
	rep.set("lsm.block_cache_hit_ratio", ratio(st1.BlockCacheHits-st0.BlockCacheHits, st1.BlockCacheMisses-st0.BlockCacheMisses))

	pp := convoy.PatternParams{Params: streamParams}
	for _, in := range inputs {
		pat, name := convoy.PatternFlock, "flock.observe"
		if in.run.pattern == "mc" {
			pat, name = convoy.PatternMC, "movingcluster.observe"
		}
		mn, err := convoy.NewPatternMiner(pat, pp)
		if err != nil {
			return err
		}
		ts, te := in.ds.TimeRange()
		for t := ts; t <= te; t++ {
			pos := in.ds.Snapshot(t)
			begin := time.Now()
			if err := mn.Observe(t, pos); err != nil {
				return err
			}
			tr.record(name, begin, time.Now(), -1, int64(t))
		}
		mn.Flush()
	}
	rep.set("flock.observe_s", tr.total("flock.observe").Seconds())
	rep.set("movingcluster.observe_s", tr.total("movingcluster.observe").Seconds())
	return nil
}
