package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/datagen/brinkhoff"
	"repro/internal/model"
	"repro/internal/storage"
)

// traffic describes the feeds of a server workload: loadgen-style city
// traffic (Brinkhoff road network in a 2000×2000 space, half the spawns in
// platoons, objects retiring on arrival and new ones spawning every tick),
// sent in K2BI batches with adjacent ticks swapped inside a batch at rate
// ooo.
type traffic struct {
	name       string // feed name prefix
	pattern    string // convoy, flock or mc
	feeds      int
	objects    int // initial objects per feed
	perTick    int // objects spawned per tick per feed
	ticks      int // ticks per feed
	tickRate   float64
	batchTicks int
	ooo        float64
}

// feedInput is one generated feed: its data (the oracle's input) and its
// pre-encoded batches, in send order.
type feedInput struct {
	run  *feedRun
	ds   *model.Dataset
	jobs []job
}

func (tf traffic) generate(seed int64) ([]*feedInput, error) {
	period := time.Duration(float64(tf.batchTicks) / tf.tickRate * float64(time.Second))
	out := make([]*feedInput, tf.feeds)
	for f := range out {
		fseed := seed*1000 + int64(f)
		ds := brinkhoff.Generate(brinkhoff.Params{
			Seed: fseed, GridW: 8, GridH: 8, SpaceW: 2000, SpaceH: 2000,
			MaxTime: int32(tf.ticks), ObjBegin: tf.objects, ObjPerTick: tf.perTick,
			Classes: 3, PlatoonFraction: 0.5, PlatoonSize: 4, PlatoonSpread: 20, Jitter: 10,
		})
		name := fmt.Sprintf("%s-%d", tf.name, f)
		fr := &feedRun{name: name, pattern: tf.pattern,
			path: "/v1/feeds/" + name + "/snapshots?pattern=" + tf.pattern}
		in := &feedInput{run: fr, ds: ds}
		rng := rand.New(rand.NewSource(fseed))
		ts, te := ds.TimeRange()
		// Batches arrive as a Poisson process with the feed's mean rate: a
		// fixed period would lock every send to one phase of convoyd's own
		// timers (persistence, archive flush) for the whole run.
		due := time.Duration(rng.Float64() * float64(period))
		for b, t0 := 0, ts; t0 <= te; b, t0 = b+1, t0+int32(tf.batchTicks) {
			t1 := min(t0+int32(tf.batchTicks)-1, te)
			order := make([]int32, 0, tf.batchTicks)
			for t := t0; t <= t1; t++ {
				order = append(order, t)
			}
			for i := 0; i+1 < len(order); i += 2 {
				if rng.Float64() < tf.ooo {
					order[i], order[i+1] = order[i+1], order[i]
				}
			}
			var body []byte
			points := 0
			for _, t := range order {
				pos := ds.Snapshot(t)
				points += len(pos)
				var err error
				if body, err = storage.AppendBatchFrame(body, t, pos); err != nil {
					return nil, err
				}
			}
			in.jobs = append(in.jobs, job{due: due,
				feed: fr, body: body, maxTick: t1, points: points})
			due += time.Duration(rng.ExpFloat64() * float64(period))
		}
		last := in.jobs[len(in.jobs)-1].due
		in.jobs = append(in.jobs, job{due: last + period, feed: fr, flush: true})
		out[f] = in
	}
	return out, nil
}

// lanes spreads the feeds over at most NumCPU sending connections. A feed
// always uses the same lane, so its batches arrive in order; each lane
// sends in due order.
func lanes(inputs []*feedInput) [][]job {
	n := min(runtime.NumCPU(), max(len(inputs), 1))
	out := make([][]job, n)
	for i, in := range inputs {
		out[i%n] = append(out[i%n], in.jobs...)
	}
	for _, l := range out {
		sort.SliceStable(l, func(a, b int) bool { return l[a].due < l[b].due })
	}
	return out
}

func feedRuns(inputs []*feedInput) []*feedRun {
	out := make([]*feedRun, len(inputs))
	for i, in := range inputs {
		out[i] = in.run
	}
	return out
}

func totalPoints(inputs []*feedInput) int {
	n := 0
	for _, in := range inputs {
		n += in.ds.NumPoints()
	}
	return n
}
