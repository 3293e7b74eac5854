package flatfile

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

func writeTemp(t *testing.T, ds *model.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.k2f")
	if err := WriteDataset(path, ds); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	return path
}

func TestConformance(t *testing.T) {
	ds := storetest.RandomDataset(1, 40, 30, 0.8)
	s, err := Open(writeTemp(t, ds))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	storetest.Run(t, s, ds)
}

// TestConformanceWide fetches sets that span many blocks of one tick.
func TestConformanceWide(t *testing.T) {
	ds := storetest.WideDataset(5)
	s, err := Open(writeTemp(t, ds))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	storetest.Run(t, s, ds)
}

func TestConformanceSparse(t *testing.T) {
	ds := storetest.RandomDataset(2, 10, 50, 0.2)
	s, err := Open(writeTemp(t, ds))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	storetest.Run(t, s, ds)
}

func TestLoadRoundTrip(t *testing.T) {
	ds := storetest.RandomDataset(3, 20, 20, 0.9)
	s, err := Open(writeTemp(t, ds))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	got, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.NumPoints() != ds.NumPoints() {
		t.Fatalf("Load points = %d, want %d", got.NumPoints(), ds.NumPoints())
	}
	gp, wp := got.Points(), ds.Points()
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("point %d = %v, want %v", i, gp[i], wp[i])
		}
	}
	if s.Count() != int64(ds.NumPoints()) {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestOutOfOrderAppendRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.k2f")
	w, err := Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := w.Append(model.Point{OID: 5, T: 3}); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if err := w.Append(model.Point{OID: 4, T: 3}); err == nil {
		t.Fatalf("out-of-order append should fail")
	}
	if err := w.Append(model.Point{OID: 5, T: 3}); err == nil {
		t.Fatalf("duplicate append should fail")
	}
	w.Close()
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage")
	if err := writeFile(path, []byte("this is not a flat file at all......")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatalf("Open of garbage should fail")
	}
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatalf("Open of missing file should fail")
	}
}

func TestEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.k2f")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open empty: %v", err)
	}
	defer s.Close()
	// Header of an empty file has ts=0, te=0 with count=0; Snapshot must not
	// explode.
	if snap, err := s.Snapshot(0); err != nil || len(snap) != 0 {
		t.Fatalf("Snapshot on empty = %v, %v", snap, err)
	}
}

func TestStatsAccounting(t *testing.T) {
	ds := storetest.RandomDataset(4, 30, 10, 1.0)
	s, err := Open(writeTemp(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Snapshot(5); err != nil {
		t.Fatal(err)
	}
	st := s.Stats().Snapshot()
	if st.SnapshotScans != 1 || st.PointsRead != 30 || st.BytesRead == 0 {
		t.Fatalf("scan stats wrong: %+v", st)
	}
	s.Stats().Reset()
	if _, err := s.Fetch(5, model.NewObjSet(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	st = s.Stats().Snapshot()
	if st.PointQueries != 3 || st.PointsRead != 3 || st.Seeks == 0 {
		t.Fatalf("fetch stats wrong: %+v", st)
	}
}

var _ storage.Store = (*Store)(nil)

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
