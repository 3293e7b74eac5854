package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
)

// intersectAllPairs is the all-pairs reference for intersectClusterSets:
// every (a, b) cluster pair is ANDed word-parallel under one interner, and
// pairs meeting m are decoded and deduplicated in (a, b) index order.
func intersectAllPairs(a, b []model.ObjSet, m int) []model.ObjSet {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	in := model.Intern(model.Universe(nil, a))
	da := make([]*bitset.Bits, len(a))
	for i, s := range a {
		da[i] = in.Encode(s, nil)
	}
	db := make([]*bitset.Bits, len(b))
	for j, s := range b {
		db[j] = in.Encode(s, nil)
	}
	scratch := bitset.New(in.Len())
	var out []model.ObjSet
	seen := map[string]bool{}
	var keyBuf []byte
	for i := range da {
		for j := range db {
			if scratch.AndOf(da[i], db[j]) < m {
				continue
			}
			keyBuf = scratch.AppendKey(keyBuf[:0])
			if seen[string(keyBuf)] {
				continue
			}
			seen[string(keyBuf)] = true
			out = append(out, in.Decode(scratch))
		}
	}
	return out
}

// randomClusters draws n clusters over ids [lo, lo+span). Disjoint
// clusters partition a random subset of the ids, like DBSCAN's; otherwise
// clusters are independent random subsets that overlap, like flock disks,
// and may repeat.
func randomClusters(rng *rand.Rand, n int, lo, span int32, disjoint bool) []model.ObjSet {
	out := make([]model.ObjSet, 0, n)
	if disjoint {
		perm := rng.Perm(int(span))
		for len(out) < n && len(perm) > 0 {
			size := min(1+rng.Intn(12), len(perm))
			ids := make([]int32, size)
			for i := range ids {
				ids[i] = lo + int32(perm[i])
			}
			perm = perm[size:]
			out = append(out, model.NewObjSet(ids...))
		}
		return out
	}
	for len(out) < n {
		ids := make([]int32, 1+rng.Intn(12))
		for i := range ids {
			ids[i] = lo + rng.Int31n(span)
		}
		out = append(out, model.NewObjSet(ids...))
	}
	return out
}

// TestIntersectClusterSetsMatchesAllPairs: the posting-list intersection
// must return exactly the all-pairs reference's output — same sets, same
// order, same deduplication — for disjoint and overlapping cluster sets
// across m = 1…5.
func TestIntersectClusterSetsMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nonEmpty := 0
	for trial := 0; trial < 400; trial++ {
		disjoint := trial%2 == 0
		span := int32(8 + rng.Intn(200))
		// b's ids are shifted so some fall outside a's universe.
		a := randomClusters(rng, rng.Intn(40), 0, span, disjoint)
		b := randomClusters(rng, rng.Intn(40), int32(rng.Intn(10))-5, span, disjoint)
		for m := 1; m <= 5; m++ {
			got := intersectClusterSets(a, b, m)
			want := intersectAllPairs(a, b, m)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d (disjoint=%v) m=%d:\n got %v\nwant %v\na=%v\nb=%v", trial, disjoint, m, got, want, a, b)
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty < 500 {
		t.Fatalf("only %d non-empty cases; the generator is too sparse", nonEmpty)
	}
}
