package core

// Benchmarks for the estimator pipelines across the record sizes
// (2^10..2^24 bits) and period counts (t = 3, 5, 10) of the paper's
// evaluation. BenchmarkJoinPoint and BenchmarkJoinPointToPoint run the
// differential harness's materialized reference pipeline (the pre-kernel
// implementation, the "materialized" rows of BENCH_pr3.json); the
// shipping fused pipeline is measured by BenchmarkEstimatePoint and
// BenchmarkEstimateCache.

import (
	"fmt"
	"math/rand"
	"testing"

	"ptm/internal/record"
)

// benchSet builds a t-period record set at one location. All records
// share one size (Eq. 2 sizes from the historical average, so this is the
// paper's operating point) and carry ~m/2 one bits (load factor ~2).
func benchSet(tb testing.TB, loc int, t, m int, seed int64) *record.Set {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]*record.Record, t)
	for i := range recs {
		r, err := record.New(1, record.PeriodID(i+1), m)
		if err != nil {
			tb.Fatal(err)
		}
		for k := 0; k < m/2; k++ {
			r.Bitmap.Set(rng.Uint64())
		}
		recs[i] = r
	}
	set, err := record.NewSet(recs)
	if err != nil {
		tb.Fatal(err)
	}
	return set
}

var benchSizes = []int{1 << 10, 1 << 14, 1 << 17, 1 << 20, 1 << 24}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

var joinSink *matPointJoin

func BenchmarkJoinPoint(b *testing.B) {
	for _, m := range benchSizes {
		for _, t := range []int{3, 5, 10} {
			set := benchSet(b, 1, t, m, 1)
			name := fmt.Sprintf("m=2^%d/t=%d", log2(m), t)
			b.Run(name+"/materialized", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j, err := materializedJoinPoint(set, SplitHalves)
					if err != nil {
						b.Fatal(err)
					}
					joinSink = j
				}
			})
		}
	}
}

var p2pSink *PointToPointResult

func BenchmarkJoinPointToPoint(b *testing.B) {
	for _, m := range benchSizes {
		for _, t := range []int{3, 5, 10} {
			// Table I's shape: the L record is 16x smaller than the L'
			// record (m'/m ratios of 8..64), exercising the expansion of
			// the first-level join.
			mSmall := m / 16
			if mSmall < 64 {
				mSmall = 64
			}
			setL := benchSet(b, 1, t, mSmall, 2)
			setLP := benchSet(b, 2, t, m, 3)
			name := fmt.Sprintf("m=2^%d/t=%d", log2(m), t)
			b.Run(name+"/materialized", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j, err := materializedJoinPointToPoint(setL, setLP)
					if err != nil {
						b.Fatal(err)
					}
					res, err := j.estimate(3)
					if err != nil {
						b.Fatal(err)
					}
					p2pSink = res
				}
			})
		}
	}
}

var estSink *PointResult

// BenchmarkEstimateCache contrasts a cold point estimation (the cache
// miss path: full fused join + store) with a warm repeat of the same
// query (key build + one locked map probe + struct copy). The hit/cold
// ratio in BENCH_pr8.json is the speedup a dashboard replaying a fixed
// window sees; acceptance wants hits ≥100× faster than cold at the
// serving shape (m=2^20, t=10).
func BenchmarkEstimateCache(b *testing.B) {
	for _, m := range []int{1 << 14, 1 << 20, 1 << 24} {
		for _, t := range []int{5, 10} {
			set := benchSet(b, 1, t, m, 5)
			name := fmt.Sprintf("m=2^%d/t=%d", log2(m), t)
			b.Run(name+"/cold", func(b *testing.B) {
				b.ReportAllocs()
				c := NewEstCache(DefaultEstCacheEntries)
				for i := 0; i < b.N; i++ {
					// A fresh epoch per iteration defeats the cache: every
					// call is a miss that computes and stores.
					res, err := c.Point(uint64(i), set, SplitHalves)
					if err != nil {
						b.Fatal(err)
					}
					estSink = res
				}
			})
			b.Run(name+"/hit", func(b *testing.B) {
				b.ReportAllocs()
				c := NewEstCache(DefaultEstCacheEntries)
				if _, err := c.Point(1, set, SplitHalves); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := c.Point(1, set, SplitHalves)
					if err != nil {
						b.Fatal(err)
					}
					estSink = res
				}
			})
		}
	}
}

// BenchmarkEstimatePoint measures the full point estimator — the fused
// path materializes nothing at all (three AND+popcount streams).
func BenchmarkEstimatePoint(b *testing.B) {
	for _, m := range []int{1 << 14, 1 << 20} {
		for _, t := range []int{5, 10} {
			set := benchSet(b, 1, t, m, 4)
			b.Run(fmt.Sprintf("m=2^%d/t=%d", log2(m), t), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := EstimatePoint(set)
					if err != nil {
						b.Fatal(err)
					}
					estSink = res
				}
			})
		}
	}
}
