// Package storetest provides a reusable conformance suite that every
// storage.Store implementation must pass: snapshots, fetches and time
// ranges must agree with the in-memory dataset the store was loaded from,
// across deterministic random workloads.
package storetest

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// RandomDataset builds a deterministic random dataset with nObj objects over
// nTicks ticks; each object is present at each tick with probability
// presence.
func RandomDataset(seed int64, nObj, nTicks int, presence float64) *model.Dataset {
	rng := rand.New(rand.NewSource(seed))
	var pts []model.Point
	for oid := 0; oid < nObj; oid++ {
		for t := 0; t < nTicks; t++ {
			if rng.Float64() > presence {
				continue
			}
			pts = append(pts, model.Point{
				OID: int32(oid),
				T:   int32(t),
				X:   rng.Float64() * 100,
				Y:   rng.Float64() * 100,
			})
		}
	}
	return model.NewDataset(pts)
}

// WideDataset is a dataset with about 1000 objects at each of 8 ticks, so
// one tick's records span several storage blocks and Run's large Fetch
// sets cross block boundaries.
func WideDataset(seed int64) *model.Dataset { return RandomDataset(seed, 1100, 8, 0.9) }

// Run exercises store against the dataset it was loaded with.
func Run(t *testing.T, store storage.Store, ds *model.Dataset) {
	t.Helper()
	wantTs, wantTe := ds.TimeRange()
	gotTs, gotTe := store.TimeRange()
	if gotTs != wantTs || gotTe != wantTe {
		t.Fatalf("TimeRange = [%d,%d], want [%d,%d]", gotTs, gotTe, wantTs, wantTe)
	}

	// Every snapshot matches, including boundaries and out-of-range ticks.
	for tt := wantTs - 1; tt <= wantTe+1; tt++ {
		want := ds.Snapshot(tt)
		got, err := store.Snapshot(tt)
		if err != nil {
			t.Fatalf("Snapshot(%d): %v", tt, err)
		}
		if !objPosEqual(got, want) {
			t.Fatalf("Snapshot(%d) = %d rows, want %d rows\n got %v\nwant %v",
				tt, len(got), len(want), got, want)
		}
	}

	// Random fetches match: sets of 1 to 8 ids and of up to 2000, mixing
	// present and absent objects or taking only one kind, at every tick and
	// its out-of-range neighbours. Against a wide dataset the large sets
	// span many storage blocks per tick.
	rng := rand.New(rand.NewSource(99))
	allObjs := ds.Objects()
	for trial := 0; trial < 60; trial++ {
		tt := wantTs + int32(rng.Intn(int(wantTe-wantTs)+3)) - 1
		n := rng.Intn(8) + 1
		if trial%2 == 1 {
			n = rng.Intn(2000) + 1
		}
		mode := trial % 3 // 0: mixed, 1: present objects only, 2: absent only
		var ids []int32
		for len(ids) < n {
			if len(allObjs) > 0 && mode != 2 && (mode == 1 || rng.Intn(3) > 0) {
				ids = append(ids, allObjs[rng.Intn(len(allObjs))])
			} else if rng.Intn(2) == 0 {
				ids = append(ids, int32(rng.Intn(100000)+5000)) // absent
			} else {
				ids = append(ids, -int32(rng.Intn(100000)+1)) // absent, negative
			}
		}
		oids := model.NewObjSet(ids...)
		want := ds.Fetch(tt, oids)
		got, err := store.Fetch(tt, oids)
		if err != nil {
			t.Fatalf("Fetch(%d, %d ids): %v", tt, len(oids), err)
		}
		if !objPosEqual(got, want) {
			t.Fatalf("Fetch(%d, %d ids) = %d rows, want %d rows\n got %v\nwant %v",
				tt, len(oids), len(got), len(want), got, want)
		}
	}

	// Empty fetch is a no-op.
	if rows, err := store.Fetch(wantTs, nil); err != nil || len(rows) != 0 {
		t.Fatalf("empty Fetch = %v, %v", rows, err)
	}

	if store.Stats() == nil {
		t.Fatalf("Stats must not be nil")
	}
}

func objPosEqual(a, b []model.ObjPos) bool {
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
