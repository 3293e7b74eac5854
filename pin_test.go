package convoy

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/lsm"
	"repro/internal/storage/storetest"
)

// pinStore is a Store that can pin a view. Reads through the store itself
// are counted as direct: Mine must read only through the view.
type pinStore struct {
	Store
	// failAfter ≥ 0 makes the view a storetest.FaultStore with that budget.
	failAfter            int64
	pins, closes, direct atomic.Int64
}

func (s *pinStore) Snapshot(t int32) ([]model.ObjPos, error) {
	s.direct.Add(1)
	return s.Store.Snapshot(t)
}

func (s *pinStore) Fetch(t int32, oids model.ObjSet) ([]model.ObjPos, error) {
	s.direct.Add(1)
	return s.Store.Fetch(t, oids)
}

func (s *pinStore) Pin() (Store, error) {
	s.pins.Add(1)
	v := s.Store
	if s.failAfter >= 0 {
		v = storetest.NewFaultStore(v, s.failAfter)
	}
	return &countedView{Store: v, closes: &s.closes}, nil
}

// countedView counts Close and leaves the parent store open.
type countedView struct {
	Store
	closes *atomic.Int64
}

func (v *countedView) Close() error {
	v.closes.Add(1)
	return nil
}

var _ storage.Pinner = (*pinStore)(nil)

func TestMinePinsOnce(t *testing.T) {
	ds := scenario()
	want := []Convoy{model.NewConvoy(NewObjSet(1, 2, 3), 0, 19)}
	runs := []struct {
		algo Algorithm
		k    int
	}{{K2Hop, 8}, {K2Hop, 1}, {VCoDA, 8}, {VCoDAStar, 8}, {PCCD, 8}, {CuTS, 8}, {DCM, 8}, {SPARE, 8}}
	for _, r := range runs {
		p := Params{M: 3, K: r.k, Eps: minetest.Eps}
		opts := &Options{Algorithm: r.algo, Workers: 2}

		s := &pinStore{Store: NewMemStore(ds), failAfter: -1}
		res, err := Mine(s, p, opts)
		if err != nil {
			t.Fatalf("%s k=%d: %v", r.algo, r.k, err)
		}
		if !model.ConvoysEqual(res.Convoys, want) {
			t.Fatalf("%s k=%d: convoys = %v, want %v", r.algo, r.k, res.Convoys, want)
		}
		if res.PointsProcessed <= 0 {
			t.Fatalf("%s k=%d: PointsProcessed = %d, want the view's reads", r.algo, r.k, res.PointsProcessed)
		}
		if s.pins.Load() != 1 || s.closes.Load() != 1 || s.direct.Load() != 0 {
			t.Fatalf("%s k=%d: pins=%d closes=%d direct reads=%d; want 1, 1, 0",
				r.algo, r.k, s.pins.Load(), s.closes.Load(), s.direct.Load())
		}

		s = &pinStore{Store: NewMemStore(ds), failAfter: 2}
		if _, err := Mine(s, p, opts); !errors.Is(err, storetest.ErrInjected) {
			t.Fatalf("%s k=%d: fault run err = %v, want ErrInjected", r.algo, r.k, err)
		}
		if s.pins.Load() != 1 || s.closes.Load() != 1 || s.direct.Load() != 0 {
			t.Fatalf("%s k=%d fault: pins=%d closes=%d direct reads=%d; want 1, 1, 0",
				r.algo, r.k, s.pins.Load(), s.closes.Load(), s.direct.Load())
		}
	}

	// Invalid options are rejected before anything is pinned.
	s := &pinStore{Store: NewMemStore(ds), failAfter: -1}
	if _, err := Mine(s, Params{M: 3, K: 8, Eps: minetest.Eps}, &Options{Workers: -1}); err == nil {
		t.Fatal("Workers -1 should be rejected")
	}
	if s.pins.Load() != 0 {
		t.Fatalf("a rejected run pinned %d views", s.pins.Load())
	}
}

// On the LSM engine, Mine releases its pinned view before it returns.
func TestMineReleasesLSMPin(t *testing.T) {
	dir := t.TempDir()
	if err := WriteLSM(dir, scenario()); err != nil {
		t.Fatal(err)
	}
	db, err := lsm.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := Mine(db, Params{M: 3, K: 8, Eps: minetest.Eps}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Convoys) != 1 {
		t.Fatalf("convoys = %v", res.Convoys)
	}
	if n := db.ReadStats().LiveSnapshots; n != 0 {
		t.Fatalf("live snapshots after Mine = %d, want 0", n)
	}
}
