package model

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Dataset is an immutable in-memory trajectory dataset organised by
// timestamp. It is the canonical representation produced by the data
// generators and the backing store for the in-memory storage adapter.
//
// Snapshots are stored as ObjPos slices sorted by OID so restricted lookups
// can binary-search.
type Dataset struct {
	ts, te int32
	// snaps[t-ts] holds the objects present at tick t, sorted by OID.
	snaps [][]ObjPos
	n     int // total number of points
}

// NewDataset builds a dataset from raw points. The time range is the min/max
// timestamp observed. Duplicate (oid,t) pairs keep the last occurrence.
func NewDataset(points []Point) *Dataset {
	if len(points) == 0 {
		return &Dataset{ts: 0, te: -1}
	}
	ts, te := points[0].T, points[0].T
	for _, p := range points {
		if p.T < ts {
			ts = p.T
		}
		if p.T > te {
			te = p.T
		}
	}
	d := &Dataset{ts: ts, te: te, snaps: make([][]ObjPos, int(te-ts)+1)}
	for _, p := range points {
		i := int(p.T - ts)
		d.snaps[i] = append(d.snaps[i], ObjPos{OID: p.OID, X: p.X, Y: p.Y})
	}
	for i, snap := range d.snaps {
		// Stable sort so that "last occurrence" below really means last in
		// input order among equal OIDs (and no reflect swapper allocation).
		slices.SortStableFunc(snap, func(a, b ObjPos) int { return cmp.Compare(a.OID, b.OID) })
		// Deduplicate by OID, keeping the last occurrence.
		out := snap[:0]
		for j := 0; j < len(snap); j++ {
			if j+1 < len(snap) && snap[j+1].OID == snap[j].OID {
				continue
			}
			out = append(out, snap[j])
		}
		d.snaps[i] = out
		d.n += len(out)
	}
	return d
}

// DatasetFromSnapshots builds a dataset from consecutive per-tick
// snapshots, snaps[i] holding tick start+i. Each snapshot must be sorted by
// OID without duplicates — the Store.Fetch contract — and the dataset takes
// ownership of the slices. Empty ticks at either end are trimmed, so the
// time range is the min/max observed timestamp, as with NewDataset.
func DatasetFromSnapshots(start int32, snaps [][]ObjPos) *Dataset {
	for len(snaps) > 0 && len(snaps[len(snaps)-1]) == 0 {
		snaps = snaps[:len(snaps)-1]
	}
	for len(snaps) > 0 && len(snaps[0]) == 0 {
		snaps = snaps[1:]
		start++
	}
	if len(snaps) == 0 {
		return &Dataset{ts: 0, te: -1}
	}
	d := &Dataset{ts: start, te: start + int32(len(snaps)) - 1, snaps: snaps}
	for _, snap := range snaps {
		d.n += len(snap)
	}
	return d
}

// TimeRange returns the inclusive timestamp range [Ts, Te] of the dataset.
// For an empty dataset Te < Ts.
func (d *Dataset) TimeRange() (ts, te int32) { return d.ts, d.te }

// NumPoints returns the total number of stored points.
func (d *Dataset) NumPoints() int { return d.n }

// NumTimestamps returns the number of ticks in the dataset's range.
func (d *Dataset) NumTimestamps() int {
	if d.te < d.ts {
		return 0
	}
	return int(d.te-d.ts) + 1
}

// Snapshot returns all objects present at tick t, sorted by OID. The
// returned slice is shared with the dataset and must not be modified.
func (d *Dataset) Snapshot(t int32) []ObjPos {
	if t < d.ts || t > d.te {
		return nil
	}
	return d.snaps[int(t-d.ts)]
}

// Fetch returns the positions at tick t of the requested objects, in OID
// order, skipping objects absent at t.
func (d *Dataset) Fetch(t int32, oids ObjSet) []ObjPos {
	snap := d.Snapshot(t)
	if len(snap) == 0 || len(oids) == 0 {
		return nil
	}
	out := make([]ObjPos, 0, len(oids))
	// Galloping merge: both sides are sorted by OID.
	i := 0
	for _, oid := range oids {
		i += sort.Search(len(snap)-i, func(k int) bool { return snap[i+k].OID >= oid })
		if i < len(snap) && snap[i].OID == oid {
			out = append(out, snap[i])
			i++
		}
		if i >= len(snap) {
			break
		}
	}
	return out
}

// Objects returns the set of all object ids appearing anywhere in the
// dataset.
func (d *Dataset) Objects() ObjSet {
	seen := make(map[int32]struct{})
	for _, snap := range d.snaps {
		for _, p := range snap {
			seen[p.OID] = struct{}{}
		}
	}
	ids := make([]int32, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	return NewObjSet(ids...)
}

// Restrict returns a new dataset containing only the given objects within
// the given interval, mirroring the paper's DB[T]|O notation. The interval
// is clamped to the dataset's range.
func (d *Dataset) Restrict(objs ObjSet, iv Interval) *Dataset {
	if iv.Start < d.ts {
		iv.Start = d.ts
	}
	if iv.End > d.te {
		iv.End = d.te
	}
	out := &Dataset{ts: iv.Start, te: iv.End}
	if iv.End < iv.Start {
		return out
	}
	out.snaps = make([][]ObjPos, iv.Len())
	for t := iv.Start; t <= iv.End; t++ {
		rows := d.Fetch(t, objs)
		out.snaps[int(t-iv.Start)] = rows
		out.n += len(rows)
	}
	return out
}

// Points flattens the dataset back to a point slice ordered by (t, oid).
func (d *Dataset) Points() []Point {
	out := make([]Point, 0, d.n)
	for i, snap := range d.snaps {
		t := d.ts + int32(i)
		for _, p := range snap {
			out = append(out, Point{OID: p.OID, T: t, X: p.X, Y: p.Y})
		}
	}
	return out
}

func (d *Dataset) String() string {
	return fmt.Sprintf("Dataset{t=[%d,%d] points=%d}", d.ts, d.te, d.n)
}
