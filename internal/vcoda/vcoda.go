// Package vcoda implements the fully-connected-convoy baselines of Yoon &
// Shahabi (ICDMW'09) as the paper uses them: PCCD mining of maximal
// partially connected convoys followed by a validation phase that reduces
// them to maximal fully connected (FC) convoys.
//
// Validation follows the paper's §4.6 observation: (O, T) is an FC convoy
// exactly when (O, T) is a convoy of the dataset restricted to objects O
// and timespan T. Each candidate is therefore re-mined on its restriction;
// a candidate that survives intact is FC, anything smaller is re-validated
// recursively. Coverage of all maximal FC convoys follows from DBSCAN
// monotonicity: adding objects never splits a cluster, so an FC convoy
// remains a convoy in every restriction of a superset of its objects.
//
// Two variants mirror the paper's measurements:
//
//   - VCoDA  — validation re-reads each candidate's restriction from the
//     store (point queries), paying I/O per validation round;
//   - VCoDA* — validation runs on the in-memory copy of the data collected
//     during the mining sweep (the paper's faster variant).
package vcoda

import (
	"fmt"
	"time"

	"repro/internal/cmc"
	"repro/internal/dbscan"
	"repro/internal/model"
	"repro/internal/storage"
)

// Report carries phase timings and counters for the experiment harness.
type Report struct {
	PreValidation int           // convoys entering validation (paper Fig 8j)
	MineTime      time.Duration // PCCD sweep
	ValidateTime  time.Duration
	Convoys       int
}

// MineStar runs VCoDA*: PCCD with snapshots kept in memory, then in-memory
// validation.
func MineStar(store storage.Store, m, k int, eps float64) ([]model.Convoy, Report, error) {
	var rep Report
	ts, te := store.TimeRange()
	mn := cmc.NewMiner(m, k)
	start := time.Now()
	var pts []model.Point
	for t := ts; t <= te; t++ {
		snap, err := store.Snapshot(t)
		if err != nil {
			return nil, rep, fmt.Errorf("vcoda: snapshot %d: %w", t, err)
		}
		for _, p := range snap {
			pts = append(pts, model.Point{OID: p.OID, T: t, X: p.X, Y: p.Y})
		}
		mn.Step(t, dbscan.Cluster(snap, eps, m))
	}
	cands := mn.Finish()
	rep.MineTime = time.Since(start)
	rep.PreValidation = len(cands)

	start = time.Now()
	ds := model.NewDataset(pts)
	out := Validate(ds, cands, m, k, eps)
	rep.ValidateTime = time.Since(start)
	rep.Convoys = len(out)
	return out, rep, nil
}

// Mine runs plain VCoDA: the PCCD sweep does not retain the data, so every
// validation round fetches each candidate's restriction from the store.
func Mine(store storage.Store, m, k int, eps float64) ([]model.Convoy, Report, error) {
	var rep Report
	ts, te := store.TimeRange()
	mn := cmc.NewMiner(m, k)
	start := time.Now()
	for t := ts; t <= te; t++ {
		snap, err := store.Snapshot(t)
		if err != nil {
			return nil, rep, fmt.Errorf("vcoda: snapshot %d: %w", t, err)
		}
		mn.Step(t, dbscan.Cluster(snap, eps, m))
	}
	cands := mn.Finish()
	rep.MineTime = time.Since(start)
	rep.PreValidation = len(cands)

	start = time.Now()
	out := model.NewConvoySet()
	for _, v := range cands {
		sub, err := RestrictFromStore(store, v.Objs, v.Interval())
		if err != nil {
			return nil, rep, err
		}
		for _, fc := range Validate(sub, []model.Convoy{v}, m, k, eps) {
			out.Update(fc)
		}
	}
	rep.ValidateTime = time.Since(start)
	res := out.Sorted()
	rep.Convoys = len(res)
	return res, rep, nil
}

// RestrictFromStore materialises DB[T]|O via point queries against a store.
// Fetch rows are already per-tick snapshots sorted by OID, so they become
// the dataset's snapshots as they are.
func RestrictFromStore(store storage.Store, objs model.ObjSet, iv model.Interval) (*model.Dataset, error) {
	snaps := make([][]model.ObjPos, 0, iv.Len())
	for t := iv.Start; t <= iv.End; t++ {
		rows, err := store.Fetch(t, objs)
		if err != nil {
			return nil, fmt.Errorf("vcoda: fetch %d: %w", t, err)
		}
		snaps = append(snaps, rows)
	}
	return model.DatasetFromSnapshots(iv.Start, snaps), nil
}

// Validate reduces candidate convoys to the maximal FC convoys they cover.
// ds must contain (at least) the restriction of every candidate.
func Validate(ds *model.Dataset, cands []model.Convoy, m, k int, eps float64) []model.Convoy {
	out := model.NewConvoySet()
	seen := make(map[string]bool)
	queue := append([]model.Convoy(nil), cands...)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if v.Size() < m || v.Len() < k {
			continue
		}
		key := v.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		if out.Covers(v) {
			// Already implied by a confirmed FC convoy (a sub-convoy of an
			// FC convoy restricted-mines to itself only if it is FC, but if
			// it is covered it cannot be maximal, so skip the work).
			continue
		}
		sub := ds.Restrict(v.Objs, v.Interval())
		res := cmc.MineDataset(sub, v.Interval(), m, k, eps)
		for _, w := range res {
			if w.Equal(v) {
				out.Update(v)
			} else {
				queue = append(queue, w)
			}
		}
	}
	return out.Sorted()
}

// Reference mines maximal FC convoys of an in-memory dataset from first
// principles (PCCD + exhaustive validation). It is the oracle the test
// suites compare every other miner against.
func Reference(ds *model.Dataset, m, k int, eps float64) []model.Convoy {
	iv := func() model.Interval { s, e := ds.TimeRange(); return model.Interval{Start: s, End: e} }()
	cands := cmc.MineDataset(ds, iv, m, k, eps)
	return Validate(ds, cands, m, k, eps)
}
