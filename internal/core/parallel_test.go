package core

import (
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/vcoda"
)

// mineWith runs the full k/2-hop miner with a fixed worker count and
// returns the canonical string rendering of the result, so tests can
// assert byte-identical output across worker counts.
func mineWith(t *testing.T, ds *model.Dataset, m, k, workers int) string {
	t.Helper()
	cfg := DefaultConfig(m, k, minetest.Eps)
	cfg.Workers = workers
	out, rep, err := Mine(storage.NewMemStore(ds), cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if workers > 0 && rep.Workers != workers {
		t.Fatalf("report says %d workers, want %d", rep.Workers, workers)
	}
	return canonical(out)
}

// TestParallelDeterminism is the hard requirement of the parallel engine:
// for every worker count the mined convoy set must be byte-identical to
// the sequential (Workers=1) run, on datasets with enough going on that
// all parallel phases (benchmark fan-out, HWMT fan-out, extension fan-out)
// actually carry work.
func TestParallelDeterminism(t *testing.T) {
	cases := []struct {
		name     string
		seed     int64
		nObj, nT int
		m, k     int
	}{
		{"small", 1, 20, 60, 3, 8},
		{"medium", 2, 40, 120, 3, 10},
		{"long-k", 3, 30, 200, 2, 24},
		{"dense", 4, 60, 80, 3, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := minetest.Random(tc.seed, tc.nObj, tc.nT)
			want := mineWith(t, ds, tc.m, tc.k, 1)
			if want == "" {
				t.Logf("note: no convoys mined for %s (still checks empty equality)", tc.name)
			}
			for _, workers := range []int{2, 3, 4, 8} {
				if got := mineWith(t, ds, tc.m, tc.k, workers); got != want {
					t.Fatalf("workers=%d output differs from sequential:\n--- sequential ---\n%s--- workers=%d ---\n%s",
						workers, want, workers, got)
				}
			}
		})
	}
	t.Run("validation-covered", testValidateDeterminism)
}

// testValidateDeterminism checks the parallel validation phase on a
// candidate list where validation carries real work (some candidates are
// not fully connected and split) and some candidates are covered by an
// earlier candidate's result — Mine's own candidates are maximal, so the
// list appends sub-convoys of mined convoys. Every worker count must give
// byte-identical output, equal to a sequential pass that skips covered
// candidates instead of validating them.
func testValidateDeterminism(t *testing.T) {
	ds := minetest.Random(2, 40, 120)
	cfg := DefaultConfig(3, 6, minetest.Eps)
	store := storage.NewMemStore(ds)
	cands, _, err := MineCandidates(store, cfg, ConvoyGrouper(cfg.M, cfg.Eps))
	if err != nil {
		t.Fatal(err)
	}
	mined, _, err := Mine(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range mined {
		if c.Len() > cfg.K {
			cands = append(cands, model.Convoy{Objs: c.Objs, Start: c.Start + 1, End: c.End})
		}
	}

	// Sequential reference with the coverage skip.
	ref := model.NewConvoySet()
	covered, split := 0, 0
	for _, v := range cands {
		if ref.Covers(v) {
			covered++
			continue
		}
		sub, err := vcoda.RestrictFromStore(store, v.Objs, v.Interval())
		if err != nil {
			t.Fatal(err)
		}
		fcs := vcoda.Validate(sub, []model.Convoy{v}, cfg.M, cfg.K, cfg.Eps)
		if len(fcs) != 1 || !fcs[0].Equal(v) {
			split++
		}
		ref.UpdateAll(fcs)
	}
	if covered == 0 || split == 0 {
		t.Fatalf("case too easy: %d covered, %d split of %d candidates", covered, split, len(cands))
	}
	want := canonical(ref.Sorted())
	for _, workers := range []int{1, 2, 4, 8} {
		rep := &Report{Workers: workers}
		out, err := validate(store, cands, cfg, rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonical(out); got != want {
			t.Fatalf("workers=%d validation differs from the sequential skip pass:\n--- want ---\n%s--- got ---\n%s", workers, want, got)
		}
		if rep.ValidateCPU == 0 {
			t.Fatalf("workers=%d: validation recorded no CPU time", workers)
		}
	}
}

func canonical(cs []model.Convoy) string {
	s := ""
	for _, c := range cs {
		s += c.String() + "\n"
	}
	return s
}

// TestParallelReportCPUAccounting checks that the parallel phases record
// summed task time: CPU time must be at least a large fraction of wall
// time for a busy phase (they are equal modulo scheduling when workers=1).
func TestParallelReportCPUAccounting(t *testing.T) {
	ds := minetest.Random(5, 40, 120)
	cfg := DefaultConfig(3, 10, minetest.Eps)
	cfg.Workers = 4
	_, rep, err := Mine(storage.NewMemStore(ds), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", rep.Workers)
	}
	if rep.BenchmarkTime > 0 && rep.BenchmarkCPU == 0 {
		t.Fatal("benchmark phase ran but recorded no CPU time")
	}
	if rep.HWMTTime > 0 && rep.HWMTCPU == 0 {
		t.Fatal("HWMT phase ran but recorded no CPU time")
	}
	if rep.ExtendRight > 0 && rep.ExtendRightCPU == 0 {
		t.Fatal("extend-right phase ran but recorded no CPU time")
	}
	if rep.PreValidation > 0 && rep.ValidateCPU == 0 {
		t.Fatal("validation phase ran but recorded no CPU time")
	}
}

// TestParallelAgainstReference cross-validates the parallel run against
// the invariant checkers: everything mined concurrently must really be a
// fully connected convoy of the dataset.
func TestParallelAgainstReference(t *testing.T) {
	ds := minetest.Random(6, 30, 100)
	cfg := DefaultConfig(3, 8, minetest.Eps)
	cfg.Workers = 8
	out, _, err := Mine(storage.NewMemStore(ds), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out {
		if !minetest.IsFCConvoy(ds, c, cfg.M, minetest.Eps) {
			t.Fatalf("parallel run mined a non-FC convoy: %v", c)
		}
	}
	if i, j := minetest.AssertMaximal(out); i >= 0 {
		t.Fatalf("result not maximal: %d ⊂ %d", i, j)
	}
}
