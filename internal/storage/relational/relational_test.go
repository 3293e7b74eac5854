package relational

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

var _ storage.Store = (*Store)(nil)

func TestConformanceBulkLoad(t *testing.T) {
	ds := storetest.RandomDataset(10, 40, 30, 0.8)
	path := filepath.Join(t.TempDir(), "table.k2r")
	if err := WriteDataset(path, ds, nil); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	s, err := Open(path, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	storetest.Run(t, s, ds)
}

// TestConformanceWide fetches sets that span many pages of one tick.
func TestConformanceWide(t *testing.T) {
	ds := storetest.WideDataset(13)
	path := filepath.Join(t.TempDir(), "table.k2r")
	if err := WriteDataset(path, ds, nil); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	s, err := Open(path, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	storetest.Run(t, s, ds)
}

func TestConformanceInserts(t *testing.T) {
	ds := storetest.RandomDataset(11, 25, 20, 0.6)
	path := filepath.Join(t.TempDir(), "table.k2r")
	s, err := Create(path, &Options{CachePages: 16})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Insert in random order to exercise splits at all positions.
	pts := ds.Points()
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	for _, p := range pts {
		if err := s.Insert(p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	storetest.Run(t, s, ds)
	if s.Count() != uint64(ds.NumPoints()) {
		t.Fatalf("Count = %d, want %d", s.Count(), ds.NumPoints())
	}
	s.Close()

	// Reopen from disk and verify persistence.
	s2, err := Open(path, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	storetest.Run(t, s2, ds)
}

// Property test: the B+tree behaves like a sorted map under random inserts
// (with overwrites) followed by gets and an ordered full scan.
func TestBtreeMatchesMapModel(t *testing.T) {
	for _, n := range []int{1, 10, 200, 5000} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.k2r")
			s, err := Create(path, &Options{CachePages: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(int64(n)))
			modelMap := map[[storage.KeySize]byte][storage.ValueSize]byte{}
			for i := 0; i < n; i++ {
				tt := int32(rng.Intn(50))
				oid := int32(rng.Intn(50))
				x, y := rng.Float64(), rng.Float64()
				key := storage.EncodeKey(tt, oid)
				modelMap[key] = storage.EncodeValue(x, y)
				if err := s.tree.insert(key[:], func() []byte { v := storage.EncodeValue(x, y); return v[:] }()); err != nil {
					t.Fatalf("insert: %v", err)
				}
			}
			// Point gets.
			for key, val := range modelMap {
				got, err := s.tree.get(key[:])
				if err != nil {
					t.Fatalf("get: %v", err)
				}
				if !bytes.Equal(got, val[:]) {
					t.Fatalf("get(%v) = %v, want %v", key, got, val)
				}
			}
			// Absent key.
			absent := storage.EncodeKey(999, 999)
			if got, err := s.tree.get(absent[:]); err != nil || got != nil {
				t.Fatalf("absent get = %v, %v", got, err)
			}
			// Ordered scan visits every key exactly once, ascending.
			var zero [storage.KeySize]byte
			start := storage.EncodeKey(-1<<31, -1<<31)
			_ = zero
			c := s.tree.seek(start[:])
			var prev []byte
			count := 0
			for ; c.valid(); c.next() {
				k := c.key()
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					t.Fatalf("scan out of order")
				}
				var kk [storage.KeySize]byte
				copy(kk[:], k)
				want, ok := modelMap[kk]
				if !ok {
					t.Fatalf("scan visited unknown key %v", kk)
				}
				if !bytes.Equal(c.value(), want[:]) {
					t.Fatalf("scan value mismatch")
				}
				prev = append(prev[:0], k...)
				count++
			}
			if c.err != nil {
				t.Fatalf("cursor error: %v", c.err)
			}
			if count != len(modelMap) {
				t.Fatalf("scan count = %d, want %d", count, len(modelMap))
			}
		})
	}
}

func TestBulkLoadRejectsDisorder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.k2r")
	s, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err = s.BulkLoad([]model.Point{
		{OID: 2, T: 1}, {OID: 1, T: 1},
	})
	if err == nil {
		t.Fatalf("BulkLoad of unsorted points should fail")
	}
}

func TestBulkLoadNonEmptyRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.k2r")
	s, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Insert(model.Point{OID: 1, T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad([]model.Point{{OID: 2, T: 2}}); err == nil {
		t.Fatalf("BulkLoad into non-empty table should fail")
	}
}

func TestLargeBulkLoadMultiLevel(t *testing.T) {
	// Enough points to force at least two internal levels:
	// leaves hold ~153, inner ~306 children, so >153*306 records needs depth 3.
	n := 60000
	pts := make([]model.Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, model.Point{OID: int32(i % 100), T: int32(i / 100), X: float64(i), Y: 1})
	}
	path := filepath.Join(t.TempDir(), "big.k2r")
	s, err := Create(path, &Options{CachePages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.BulkLoad(pts); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	// Spot-check snapshots and fetches.
	snap, err := s.Snapshot(100)
	if err != nil || len(snap) != 100 {
		t.Fatalf("Snapshot(100) = %d rows, err %v", len(snap), err)
	}
	rows, err := s.Fetch(599, model.NewObjSet(0, 50, 99))
	if err != nil || len(rows) != 3 {
		t.Fatalf("Fetch = %v, %v", rows, err)
	}
	if rows[1].X != float64(599*100+50) {
		t.Fatalf("Fetch value wrong: %v", rows[1])
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := writeGarbage(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, nil); err == nil {
		t.Fatalf("Open of garbage should fail")
	}
}

func TestStatsAccounting(t *testing.T) {
	ds := storetest.RandomDataset(12, 20, 10, 1.0)
	path := filepath.Join(t.TempDir(), "t.k2r")
	if err := WriteDataset(path, ds, nil); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, &Options{CachePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Snapshot(3); err != nil {
		t.Fatal(err)
	}
	st := s.Stats().Snapshot()
	if st.SnapshotScans != 1 || st.PointsRead != 20 {
		t.Fatalf("scan stats: %+v", st)
	}
	if _, err := s.Fetch(3, model.NewObjSet(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	st = s.Stats().Snapshot()
	if st.PointQueries != 3 || st.Seeks < 3 {
		t.Fatalf("fetch stats: %+v", st)
	}
	if s.PageReads() == 0 {
		t.Fatalf("expected physical page reads with tiny cache")
	}
}

func writeGarbage(path string) error {
	data := make([]byte, PageSize*2)
	copy(data, "NOPE")
	return os.WriteFile(path, data, 0o644)
}
