package lsm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// TestFetchMatchesGetKV is the model test of the ordered Fetch walk: on
// random multi-run databases (several flushes, no compaction, live
// memtable entries, overwrites across runs, tombstones, negative oids),
// Fetch(t, oids) must equal a per-key Snapshot.GetKV loop for oid sets of
// 1 to 2000 that are all present, all absent or mixed, and that cross many
// 170-record blocks.
func TestFetchMatchesGetKV(t *testing.T) {
	const ticks = 3
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db, err := Open(t.TempDir(), &Options{MemtableBytes: 1 << 30, MaxTables: 1000})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// Keys written at least once; most are live, some deleted.
			var written [ticks][]int32
			runs := 1 + rng.Intn(4)
			for r := 0; r <= runs; r++ { // the last round stays in the memtable
				for tt := int32(0); tt < ticks; tt++ {
					for i := 0; i < 300+rng.Intn(900); i++ {
						oid := int32(rng.Intn(4000)) - 2000
						key := storage.EncodeKey(tt, oid)
						if rng.Intn(8) == 0 {
							if err := db.DeleteKV(key); err != nil {
								t.Fatal(err)
							}
						} else if err := db.PutKV(key, storage.EncodeValue(float64(r), float64(oid))); err != nil {
							t.Fatal(err)
						}
						written[tt] = append(written[tt], oid)
					}
				}
				if r < runs {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if db.NumTables() != runs {
				t.Fatalf("%d runs, want %d (compaction must not run)", db.NumTables(), runs)
			}
			for trial := 0; trial < 60; trial++ {
				tt := int32(rng.Intn(ticks+2)) - 1 // includes ticks outside the data
				n := 1 + rng.Intn(2000)
				if trial%4 == 0 {
					n = 1 + rng.Intn(8)
				}
				var ids []int32
				for len(ids) < n {
					switch {
					case trial%3 == 1 && tt >= 0 && tt < ticks: // written keys only
						ids = append(ids, written[tt][rng.Intn(len(written[tt]))])
					case trial%3 == 2: // never written
						ids = append(ids, int32(rng.Intn(4000))+3000)
					default:
						ids = append(ids, int32(rng.Intn(6000))-3000)
					}
				}
				oids := model.NewObjSet(ids...)
				got, err := db.Fetch(tt, oids)
				if err != nil {
					t.Fatal(err)
				}
				want := getKVLoop(t, db, tt, oids)
				if len(got) != len(want) {
					t.Fatalf("trial %d: Fetch(%d, %d ids) = %d rows, GetKV loop %d", trial, tt, len(oids), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d: row %d = %v, GetKV loop %v", trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestFetchUnsortedInput: Fetch is specified over a sorted ObjSet, but an
// unsorted id list must still be answered key by key.
func TestFetchUnsortedInput(t *testing.T) {
	db, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for oid := int32(0); oid < 1000; oid++ {
		if err := db.Put(model.Point{T: 1, OID: oid * 2, X: float64(oid)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Backwards across blocks, backwards and repeated within one block.
	oids := model.ObjSet{1500, 3, 40, 12, 12, 1998, 0, 40, 777, 1201, 1200}
	got, err := db.Fetch(1, oids)
	if err != nil {
		t.Fatal(err)
	}
	want := getKVLoop(t, db, 1, oids)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Fetch = %v, GetKV loop %v", got, want)
	}
}

// Fetch probes bloom filters only above the oldest run: a compacted store
// makes no probes at all, and a multi-run store probes its newer runs.
func TestFetchSkipsOldestRunBloom(t *testing.T) {
	db, err := Open(t.TempDir(), &Options{MaxTables: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	oids := model.NewObjSet(1, 5, 9, 400)
	probes := func() int64 {
		rs := db.ReadStats()
		return rs.BloomHits + rs.BloomMisses
	}
	for run := 0; run < 2; run++ {
		for oid := int32(0); oid < 500; oid++ {
			if err := db.Put(model.Point{T: 1, OID: oid, X: float64(run)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		before := probes()
		rows, err := db.Fetch(1, oids)
		if err != nil || len(rows) != len(oids) {
			t.Fatalf("run %d: Fetch = %v, %v", run, rows, err)
		}
		if got := probes() - before; (run == 0) != (got == 0) {
			t.Fatalf("%d runs: Fetch made %d bloom probes", run+1, got)
		}
	}
}

// getKVLoop is the reference Fetch: one Snapshot.GetKV per key.
func getKVLoop(t *testing.T, db *DB, tt int32, oids model.ObjSet) []model.ObjPos {
	t.Helper()
	s, err := db.AcquireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	var out []model.ObjPos
	for _, oid := range oids {
		v, err := s.GetKV(storage.EncodeKey(tt, oid))
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			x, y := storage.DecodeValue(v)
			out = append(out, model.ObjPos{OID: oid, X: x, Y: y})
		}
	}
	return out
}

// BenchmarkFetch measures the k/2-hop read path: Fetch of sorted oid sets
// of 4, 64 and 1024 objects at one tick, on a single-run store and on one
// spread over four runs. The block cache holds the whole store, so the
// figure is the walk's CPU cost, not pread.
func BenchmarkFetch(b *testing.B) {
	const objs, ticks = 4096, 64
	for _, runs := range []int{1, 4} {
		db, err := Open(b.TempDir(), &Options{MemtableBytes: 1 << 30, MaxTables: 1000, BlockCacheBytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < runs; r++ {
			// Each run holds every runs-th object, so every run is probed.
			for tt := int32(0); tt < ticks; tt++ {
				for oid := int32(r); oid < objs; oid += int32(runs) {
					if err := db.Put(model.Point{T: tt, OID: oid, X: float64(oid)}); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(1))
		for _, n := range []int{4, 64, 1024} {
			sets := make([]model.ObjSet, 64)
			for i := range sets {
				ids := make([]int32, n)
				for j := range ids {
					ids[j] = int32(rng.Intn(objs))
				}
				sets[i] = model.NewObjSet(ids...)
			}
			for tt := int32(0); tt < ticks; tt++ { // warm the cache
				if _, err := db.Fetch(tt, sets[0]); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("runs=%d/oids=%d", runs, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.Fetch(int32(i%ticks), sets[i%len(sets)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		db.Close()
	}
}
