package idindex

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkAgainstSearch probes every id of the column, the ids next to each,
// and both ends of the int64 range, and wants Find to equal
// slices.BinarySearch position for position.
func checkAgainstSearch(t *testing.T, ids []int64, extra ...int64) {
	t.Helper()
	x := New(ids)
	probes := append([]int64{math.MinInt64, math.MaxInt64, 0, -1, 1}, extra...)
	for _, id := range ids {
		probes = append(probes, id)
		if id > math.MinInt64 {
			probes = append(probes, id-1)
		}
		if id < math.MaxInt64 {
			probes = append(probes, id+1)
		}
	}
	for _, id := range probes {
		pos, ok := x.Find(id)
		wantPos, wantOK := slices.BinarySearch(ids, id)
		if pos != wantPos || ok != wantOK {
			t.Fatalf("column %v: Find(%d) = (%d, %v), binary search (%d, %v)", ids, id, pos, ok, wantPos, wantOK)
		}
	}
}

func TestFindMatchesBinarySearch(t *testing.T) {
	dense := make([]int64, 1000)
	for i := range dense {
		dense[i] = int64(i) + 100
	}
	cases := map[string][]int64{
		"empty":         nil,
		"one":           {7},
		"one negative":  {-7},
		"dense":         dense,
		"gap in span":   {1, 2, 3, 1000, 1001, 1002},
		"negative":      {-500, -400, -3, -2, -1, 0, 5},
		"clustered":     {0, 1, 2, 3, 4, 5, 6, 7, math.MaxInt64},
		"full range":    {math.MinInt64, -1, 0, 1, math.MaxInt64},
		"near min":      {math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 5},
		"near max":      {math.MaxInt64 - 5, math.MaxInt64 - 1, math.MaxInt64},
		"sparse powers": {1, 1 << 10, 1 << 20, 1 << 30, 1 << 40, 1 << 50, 1 << 60},
	}
	for name, ids := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstSearch(t, ids) })
	}
}

// TestBucketsStayBounded pins the one-pass build's size: never more buckets
// than ids, so the index costs a column's worth of ints at most.
func TestBucketsStayBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n < 200; n++ {
		ids := make([]int64, 0, n)
		next := int64(rng.Intn(1000)) - 500
		for len(ids) < n {
			ids = append(ids, next)
			next += 1 + int64(rng.Intn(50))
		}
		if x := New(ids); len(x.starts) > n+1 {
			t.Fatalf("n=%d: %d bucket starts", n, len(x.starts))
		}
	}
}

// FuzzIDIndex draws an ascending column from the fuzzer's bytes — a start
// anywhere in int64, then gaps of one of four scales (adjacent, small,
// large, or a jump toward the top of the range) — and checks Find against
// slices.BinarySearch on every id, the gaps around them, below the first
// and past the last, and the empty column against the same probes.
func FuzzIDIndex(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(100), []byte{0})
	f.Add(int64(-50), []byte{0, 0, 0, 1, 2, 3, 0, 0})
	f.Add(int64(math.MinInt64), []byte{3, 3, 0, 1})
	f.Add(int64(math.MaxInt64-20), []byte{0, 1, 0, 2, 0})
	f.Add(int64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0})
	f.Fuzz(func(t *testing.T, start int64, gaps []byte) {
		ids := []int64{start}
		for _, g := range gaps {
			var step uint64
			switch g & 3 {
			case 0:
				step = 1
			case 1:
				step = 1 + uint64(g>>2)
			case 2:
				step = 1 + uint64(g>>2)<<20
			case 3:
				step = 1 + uint64(g>>2)<<56
			}
			last := ids[len(ids)-1]
			if uint64(math.MaxInt64-last) < step {
				break
			}
			ids = append(ids, last+int64(step))
		}
		probes := []int64{start}
		if len(gaps) > 0 {
			probes = append(probes, start+int64(gaps[0]))
		}
		checkAgainstSearch(t, ids, probes...)
		checkAgainstSearch(t, nil, probes...)
	})
}

// TestUnsortedColumnIsMemorySafe: a column a caller failed to check builds
// and answers without indexing out of range.
func TestUnsortedColumnIsMemorySafe(t *testing.T) {
	for _, ids := range [][]int64{
		{5, 1},
		{1, 9, 3, 4},
		{math.MaxInt64, math.MinInt64, 0},
		{0, math.MinInt64, math.MaxInt64},
		{3, 3, 3},
	} {
		x := New(ids)
		for _, id := range append([]int64{math.MinInt64, -1, 0, 2, 4, math.MaxInt64}, ids...) {
			if pos, _ := x.Find(id); pos < 0 || pos > len(ids) {
				t.Fatalf("column %v: Find(%d) at %d", ids, id, pos)
			}
		}
	}
}
