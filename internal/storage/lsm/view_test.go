package lsm

import (
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// TestPinConformance runs the store conformance suite through a pinned
// view on a compacted store, a store spread over several runs, and one
// whose newest records are still in the memtable.
func TestPinConformance(t *testing.T) {
	ds := storetest.WideDataset(31)
	pts := ds.Points()

	compacted := t.TempDir()
	if err := WriteDataset(compacted, ds, nil); err != nil {
		t.Fatal(err)
	}
	open := func(dir string, opts *Options) *DB {
		t.Helper()
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}

	runs := open(t.TempDir(), &Options{MemtableBytes: 64 << 10, MaxTables: 1000})
	if err := runs.PutBatch(pts); err != nil {
		t.Fatal(err)
	}
	if runs.NumTables() < 3 {
		t.Fatalf("expected several sstables, got %d", runs.NumTables())
	}

	live := open(t.TempDir(), nil)
	if err := live.PutBatch(pts[:len(pts)/2]); err != nil {
		t.Fatal(err)
	}
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := live.PutBatch(pts[len(pts)/2:]); err != nil {
		t.Fatal(err)
	}
	if live.NumTables() != 1 || live.mem.len() == 0 {
		t.Fatalf("want one run plus a live memtable, got %d runs, %d memtable records", live.NumTables(), live.mem.len())
	}

	for _, tc := range []struct {
		name string
		db   *DB
	}{{"compacted", open(compacted, nil)}, {"multi-run", runs}, {"live-memtable", live}} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := tc.db.Pin()
			if err != nil {
				t.Fatal(err)
			}
			before := tc.db.Stats().Snapshot()
			storetest.Run(t, v, ds)
			if v.Stats() != tc.db.Stats() {
				t.Fatal("the view must count into the DB's IOStats")
			}
			after := tc.db.Stats().Snapshot()
			if after.PointQueries == before.PointQueries || after.SnapshotScans == before.SnapshotScans {
				t.Fatalf("reads through the view were not counted: %+v → %+v", before, after)
			}
			if n := tc.db.ReadStats().LiveSnapshots; n != 1 {
				t.Fatalf("live snapshots while pinned = %d, want 1", n)
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
			if err := v.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if n := tc.db.ReadStats().LiveSnapshots; n != 0 {
				t.Fatalf("live snapshots after Close = %d, want 0", n)
			}
		})
	}
}

// A pinned view reads the table-list version of its pin: a compaction
// after Pin does not disturb it, its TimeRange does not move when later
// ticks are written and flushed, and a closed DB refuses to pin.
func TestPinIsOneVersion(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	for tick := int32(0); tick < 3; tick++ {
		if err := db.PutBatch([]model.Point{{OID: 1, T: tick, X: 1}, {OID: 2, T: tick, X: 2}}); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	v, err := db.Pin()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(model.Point{OID: 1, T: 9, X: 5}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if ts, te := v.TimeRange(); ts != 0 || te != 2 {
		t.Fatalf("view TimeRange = [%d,%d], want the pinned [0,2]", ts, te)
	}
	if ts, te := db.TimeRange(); ts != 0 || te != 9 {
		t.Fatalf("db TimeRange = [%d,%d], want [0,9]", ts, te)
	}
	rows, err := v.Fetch(1, model.NewObjSet(1, 2))
	if err != nil || len(rows) != 2 || rows[1].X != 2 {
		t.Fatalf("Fetch through the view after compaction = %v, %v", rows, err)
	}
	snap, err := v.Snapshot(2)
	if err != nil || len(snap) != 2 {
		t.Fatalf("Snapshot through the view after compaction = %v, %v", snap, err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Pin(); !errors.Is(err, errClosed) || v != nil {
		t.Fatalf("Pin on a closed DB = %v, %v; want nil, errClosed", v, err)
	}
}

var _ storage.Pinner = (*DB)(nil)
