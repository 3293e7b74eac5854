package lsm

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// Compaction across many runs with heavy overwrites must keep exactly the
// newest value per key and preserve global order.
func TestCompactionPreservesNewestAndOrder(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MemtableBytes: 512, MaxTables: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(13))
	want := map[[2]int32]float64{}
	for i := 0; i < 5000; i++ {
		k := [2]int32{int32(rng.Intn(20)), int32(rng.Intn(20))}
		x := rng.Float64()
		want[k] = x
		if err := db.Put(model.Point{T: k[0], OID: k[1], X: x}); err != nil {
			t.Fatal(err)
		}
	}
	if db.NumTables() < 5 {
		t.Fatalf("expected many runs before compaction, got %d", db.NumTables())
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.NumTables() != 1 {
		t.Fatalf("compaction left %d tables", db.NumTables())
	}
	// The single run must be sorted, unique, and hold the newest values.
	tab := db.tables[0]
	it := tab.iterator(nil, nil)
	var prev []byte
	n := 0
	for ; it.valid(); it.next() {
		if prev != nil && bytes.Compare(prev, it.key()) >= 0 {
			t.Fatalf("compacted run out of order or duplicated")
		}
		tt, oid := storage.DecodeKey(it.key())
		x, _ := storage.DecodeValue(it.value())
		if want[[2]int32{tt, oid}] != x {
			t.Fatalf("stale value for (%d,%d): %f", tt, oid, x)
		}
		prev = append(prev[:0], it.key()...)
		n++
	}
	if n != len(want) {
		t.Fatalf("compacted run has %d keys, want %d", n, len(want))
	}
}

// The block cache must return the same bytes as uncached reads and keep
// working past its eviction capacity.
func TestBlockCacheCoherent(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 200000 // ≫ the default BlockCacheBytes worth of records
	for i := 0; i < n; i++ {
		if err := db.Put(model.Point{T: int32(i / 256), OID: int32(i % 256), X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		i := rng.Intn(n)
		v, err := db.Get(int32(i/256), int32(i%256))
		if err != nil {
			t.Fatal(err)
		}
		x, _ := storage.DecodeValue(v)
		if x != float64(i) {
			t.Fatalf("cache incoherent at %d: got %f", i, x)
		}
	}
}

// The block cache's CLOCK ring: a hit gives its entry a second chance, the
// hand evicts the first cold entry, and a slot left stale by dropTable is
// reclaimed without evicting anything live — not even its own key,
// re-inserted into another slot since, whether that slot lies before or
// after the stale one. Hits mark the live slot.
func TestBlockCacheClockOrder(t *testing.T) {
	c := newBlockCache(0) // the 4-entry-per-shard floor
	s := &c.shards[0]
	var k []cacheKey // keys of shard 0, each from its own table
	for tab := uint64(1); len(k) < 8; tab++ {
		if key := (cacheKey{table: tab}); c.shard(key) == s {
			k = append(k, key)
		}
	}
	check := func(step string, live, gone []int) {
		t.Helper()
		for _, i := range live {
			if _, ok := s.m[k[i]]; !ok {
				t.Fatalf("%s: k%d evicted", step, i)
			}
		}
		for _, i := range gone {
			if _, ok := s.m[k[i]]; ok {
				t.Fatalf("%s: k%d still cached", step, i)
			}
		}
		for key, e := range s.m {
			if s.ring[e.slot] != key {
				t.Fatalf("%s: %v maps to slot %d, which holds %v", step, key, e.slot, s.ring[e.slot])
			}
		}
	}
	hit := func(i int) {
		t.Helper()
		if b, ok := c.get(k[i]); !ok || len(b) != 1 || b[0] != byte(i) {
			t.Fatalf("get k%d = %v, %v", i, b, ok)
		}
		if !s.used[s.m[k[i]].slot] {
			t.Fatalf("hit on k%d did not mark its slot", i)
		}
	}
	put := func(i int) { c.put(k[i], []byte{byte(i)}) }

	for i := 0; i < 4; i++ {
		put(i)
	}
	hit(0)
	hit(2)
	put(4) // passes used k0, evicts cold k1
	check("second chance", []int{0, 2, 3, 4}, []int{1})
	put(5) // passes used k2, evicts cold k3
	check("second chance again", []int{0, 2, 4, 5}, []int{3})

	// Ring [k0 k4 k2 k5], all cold, hand at slot 0. Dropping k2's table
	// leaves slot 2 stale; k2 re-inserted lands in slot 0, before it.
	c.dropTable(k[2].table)
	put(2)
	check("re-insert before the stale slot", []int{2, 4, 5}, []int{0})
	put(6) // evicts cold k4 in slot 1
	hit(2)
	put(7) // reaches stale slot 2: takes it, evicting nothing
	check("stale slot after the live one", []int{2, 5, 6, 7}, []int{4})

	// Ring [k2 k6 k7 k5], k2 used, hand at slot 3. A stale slot is taken
	// at once, whatever its used bit says.
	put(3) // evicts cold k5; ring [k2 k6 k7 k3], hand at slot 0
	check("cold eviction", []int{2, 6, 7, 3}, []int{5})
	c.dropTable(k[2].table)
	put(1)
	check("stale used slot reclaimed", []int{6, 7, 3, 1}, []int{2})

	// Ring [k1 k6 k7 k3], hand at slot 1. Drop k1 (slot 0 stale), then
	// re-insert it: the hand takes cold k6's slot 1, after the stale one.
	c.dropTable(k[1].table)
	put(1)
	check("re-insert after the stale slot", []int{1, 7, 3}, []int{6})
	hit(1) // must mark slot 1, not stale slot 0
	put(0) // hand at 2: evicts cold k7
	put(4) // hand at 3: evicts cold k3
	put(5) // hand at 0: takes stale slot 0 without evicting k1
	check("stale slot before the live one", []int{1, 0, 4, 5}, []int{7, 3})
	put(6) // hand at 1: k1's second chance spares it; evicts k0
	check("second chance on the live slot", []int{1, 4, 5, 6}, []int{0})
}

// Snapshot scans across memtable + multiple runs must merge and dedupe.
func TestSnapshotAcrossMemtableAndRuns(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, &Options{MaxTables: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Run 1: oids 0..9 at t=5 with X=1.
	for oid := int32(0); oid < 10; oid++ {
		db.Put(model.Point{T: 5, OID: oid, X: 1})
	}
	db.Flush()
	// Run 2: overwrite evens with X=2.
	for oid := int32(0); oid < 10; oid += 2 {
		db.Put(model.Point{T: 5, OID: oid, X: 2})
	}
	db.Flush()
	// Memtable: add oid 10 and overwrite oid 1 with X=3.
	db.Put(model.Point{T: 5, OID: 10, X: 3})
	db.Put(model.Point{T: 5, OID: 1, X: 3})

	snap, err := db.Snapshot(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 11 {
		t.Fatalf("snapshot rows = %d, want 11: %v", len(snap), snap)
	}
	for _, r := range snap {
		var want float64
		switch {
		case r.OID == 10 || r.OID == 1:
			want = 3
		case r.OID%2 == 0:
			want = 2
		default:
			want = 1
		}
		if r.X != want {
			t.Fatalf("oid %d: X = %f, want %f", r.OID, r.X, want)
		}
	}
}

func TestReopenAfterManyCycles(t *testing.T) {
	dir := t.TempDir()
	want := map[int32]float64{}
	for cycle := 0; cycle < 5; cycle++ {
		db, err := Open(dir, &Options{MemtableBytes: 1024, MaxTables: 3})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for i := 0; i < 300; i++ {
			oid := int32(cycle*300 + i)
			want[oid] = float64(cycle)
			if err := db.Put(model.Point{T: 1, OID: oid, X: float64(cycle)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap, err := db.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(snap), len(want))
	}
	for _, r := range snap {
		if r.X != want[r.OID] {
			t.Fatalf("oid %d: X = %f, want %f", r.OID, r.X, want[r.OID])
		}
	}
}

func BenchmarkSnapshotScan(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 100000; i++ {
		db.Put(model.Point{T: int32(i / 1000), OID: int32(i % 1000), X: float64(i)})
	}
	db.Flush()
	db.Compact()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Snapshot(int32(i % 100)); err != nil {
			b.Fatal(err)
		}
	}
}
