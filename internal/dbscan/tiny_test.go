package dbscan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
)

// specialEps are radii no grid can use, where both paths scan all pairs,
// plus one huge radius a grid can still use.
var specialEps = []float64{0, -0.5, math.NaN(), math.Inf(1), -math.Inf(1), 1e200, 1e-300, 1e154}

// decodeTinyInput turns fuzz bytes into a Cluster input of at most tinyMax
// points. Byte 0 → minPts ∈ [1,8]; byte 1 → eps ∈ {0.25,…,4.0}, or from
// 0xF0 up one of specialEps; byte 2 → flags (bit 0 moves every x across
// the int32 cell limit, where the indexed path must fall back to all
// pairs); then 3-byte chunks (oid, x, y) with oid and coordinates as
// signed bytes, coordinates in quarter units. Duplicate OIDs are kept, and
// coincident points are common. Every value is a small dyadic rational, so
// the grid's cell arithmetic is exact and both paths must agree bit for
// bit.
func decodeTinyInput(data []byte) (objs []model.ObjPos, eps float64, minPts int, ok bool) {
	if len(data) < 3 {
		return nil, 0, 0, false
	}
	minPts = 1 + int(data[0]%8)
	eps = 0.25 * float64(1+data[1]%16)
	if data[1] >= 0xF0 {
		eps = specialEps[data[1]%8]
	}
	var shift float64
	if data[2]&1 != 0 && eps > 0 && eps < 5 {
		shift = (math.MaxInt32 - 8) * eps
	}
	for i := 3; i+3 <= len(data) && len(objs) < tinyMax; i += 3 {
		objs = append(objs, model.ObjPos{
			OID: int32(int8(data[i])),
			X:   shift + float64(int8(data[i+1]))/4,
			Y:   float64(int8(data[i+2])) / 4,
		})
	}
	return objs, eps, minPts, true
}

// FuzzClusterTinyVsGrid: on every input of at most tinyMax points, the
// bit-mask path and the indexed path return deeply equal clusters — same
// sets, same order, nil for none.
func FuzzClusterTinyVsGrid(f *testing.F) {
	f.Add([]byte{1, 3, 0, 1, 0, 0, 2, 4, 0, 3, 8, 0})
	f.Add([]byte{0, 3, 1, 5, 0, 0, 5, 1, 0, 2, 0, 1}) // duplicate OIDs, across the cell limit
	f.Add(stolenBorderBytes())
	f.Add([]byte{0, 0xF3, 0, 1, 0, 0, 2, 100, 0, 3, 0, 100}) // eps +Inf: one cluster
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, eps, minPts, ok := decodeTinyInput(data)
		if !ok || len(objs) == 0 || len(objs) < minPts {
			return
		}
		tiny := clusterTiny(objs, eps, minPts)
		grid := clusterIndexed(objs, eps, minPts)
		if !reflect.DeepEqual(tiny, grid) {
			t.Fatalf("eps=%v minPts=%d objs=%v:\ntiny %v\ngrid %v", eps, minPts, objs, tiny, grid)
		}
		if got := Cluster(objs, eps, minPts); !reflect.DeepEqual(got, grid) {
			t.Fatalf("Cluster = %v, indexed path %v", got, grid)
		}
	})
}

// stolenBorderObjs is the input where a core seed reaches fewer than minPts
// points. With eps 1 and minPts 4, S (0,0) is core with B and its private
// borders P1, P2. T (2,0) is core too (B, Q1, Q2), but B is already S's,
// so T's cluster is {T, Q1, Q2}: three points, below minPts, back to noise.
// B is not core ({B, S, T}), so S's cluster never reaches T.
func stolenBorderObjs() []model.ObjPos {
	return []model.ObjPos{
		pos(1, 0, 0),  // S
		pos(2, 0, 1),  // P1
		pos(3, 0, -1), // P2
		pos(4, 1, 0),  // B
		pos(5, 2, 0),  // T
		pos(6, 2, 1),  // Q1
		pos(7, 2, -1), // Q2
	}
}

// stolenBorderBytes encodes stolenBorderObjs for decodeTinyInput.
func stolenBorderBytes() []byte {
	data := []byte{3, 3, 0} // minPts 4, eps 1, no shift
	for _, p := range stolenBorderObjs() {
		data = append(data, byte(p.OID), byte(int8(p.X*4)), byte(int8(p.Y*4)))
	}
	return data
}

func TestClusterStolenBorder(t *testing.T) {
	objs := stolenBorderObjs()
	want := []model.ObjSet{model.NewObjSet(1, 2, 3, 4)}
	for name, got := range map[string][]model.ObjSet{
		"tiny":    clusterTiny(objs, 1, 4),
		"indexed": clusterIndexed(objs, 1, 4),
	} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s path: %v, want %v (T's undersized cluster must return to noise)", name, got, want)
		}
	}
	objs2, eps, minPts, _ := decodeTinyInput(stolenBorderBytes())
	if !reflect.DeepEqual(objs2, objs) || eps != 1 || minPts != 4 {
		t.Fatalf("stolenBorderBytes decodes to %v eps=%v minPts=%d", objs2, eps, minPts)
	}
}

// Two points 0.5 apart straddle the int32 cell limit at x = 2³¹ (eps 1):
// their cell indices are MaxInt32 and one past it, which no int32 cell can
// hold. Cluster must still pair them, on the indexed path too (the 80
// isolated points push the input past tinyMax), and the incremental engine
// must agree.
func TestClusterAtInt32CellLimit(t *testing.T) {
	objs := []model.ObjPos{pos(1, 1<<31-0.25, 0), pos(2, 1<<31+0.25, 0)}
	for i := 0; i < 80; i++ {
		objs = append(objs, pos(int32(100+i), float64(10*i), 50))
	}
	want := []model.ObjSet{model.NewObjSet(1, 2)}
	if got := Cluster(objs, 1, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("Cluster = %v, want %v", got, want)
	}
	if got := clusterIndexed(objs[:2], 1, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("indexed path on the pair = %v, want %v", got, want)
	}
	inc, err := NewIncremental(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	stepEqualsScratch(t, inc, objs, 1, 2, 0)
}

// Random small inputs, including duplicate OIDs and coincident points,
// through both paths; a deterministic complement to the fuzz target.
func TestClusterTinyMatchesIndexedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 3+3*(1+rng.Intn(tinyMax)))
		rng.Read(data)
		data[2] &= 1
		if trial%2 == 0 {
			for i := 3; i < len(data); i++ {
				data[i] &= 0x0f // a dense 4×4 area, small oid range
			}
		}
		objs, eps, minPts, _ := decodeTinyInput(data)
		if len(objs) < minPts {
			continue
		}
		tiny := clusterTiny(objs, eps, minPts)
		grid := clusterIndexed(objs, eps, minPts)
		if !reflect.DeepEqual(tiny, grid) {
			t.Fatalf("trial %d eps=%v minPts=%d objs=%v:\ntiny %v\ngrid %v", trial, eps, minPts, objs, tiny, grid)
		}
	}
}

// BenchmarkClusterTiny measures the tinyMax cut-off: the bit-mask path
// against the indexed (grid) path on restriction-sized inputs, n points
// spread over a 3×3-eps square so most of them are density-connected.
func BenchmarkClusterTiny(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		objs := make([]model.ObjPos, n)
		for i := range objs {
			objs[i] = pos(int32(i), rng.Float64()*3, rng.Float64()*3)
		}
		for _, path := range []struct {
			name string
			fn   func([]model.ObjPos, float64, int) []model.ObjSet
		}{{"tiny", clusterTiny}, {"grid", clusterIndexed}} {
			b.Run(fmt.Sprintf("%s/n=%d", path.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					path.fn(objs, 1, 3)
				}
			})
		}
	}
}
