package store

import (
	"fmt"
	"testing"

	"ptm/internal/bitmap"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

// oocM is the per-record bitmap size of the out-of-core sweep: 2^24
// bits (2 MiB of words), the acceptance floor where cold-tier joins
// must stay within 2x of resident throughput. The sweep joins 4 periods
// (the register kernel) and 20 (past the register budget of 16
// operands, so the tiled kernel).
const (
	oocM   = 1 << 24
	oocLoc = vhash.LocationID(1)
)

// oocRecords builds the deterministic join operand set: periods records
// of oocM bits whose words carry a period-mixed pattern (the AND scan
// touches every word regardless of density, so the pattern only needs
// to be non-trivial).
func oocRecords(b *testing.B, periods int) []*record.Record {
	b.Helper()
	recs := make([]*record.Record, 0, periods)
	for p := 1; p <= periods; p++ {
		words := make([]uint64, oocM/64)
		seed := uint64(p) * 0x9e3779b97f4a7c15
		for i := range words {
			words[i] = seed ^ uint64(i)*0x2545f4914f6cdd1d
		}
		bm, err := bitmap.FromWords(words)
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, &record.Record{Location: oocLoc, Period: record.PeriodID(p), Bitmap: bm})
	}
	return recs
}

// benchJoin drives the join workload: collect the first n periods'
// operands from the store (pinning any cold spans; cold records arrive
// as FromWords views over the mapped words), AND-join them with the
// fused kernel exactly as the estimators do, unpin.
func benchJoin(b *testing.B, st Store, n int) {
	b.Helper()
	periods := make([]record.PeriodID, 0, n)
	for p := 1; p <= n; p++ {
		periods = append(periods, record.PeriodID(p))
	}
	b.SetBytes(int64(n) * oocM / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _, unpin, err := st.Collect(oocLoc, periods)
		if err != nil {
			b.Fatal(err)
		}
		ms := make([]*bitmap.Bitmap, len(recs))
		for j, rec := range recs {
			ms[j] = rec.Bitmap
		}
		ones, _, err := bitmap.AndOnes(ms)
		unpin()
		if err != nil {
			b.Fatal(err)
		}
		if ones < 0 {
			b.Fatal("impossible popcount")
		}
	}
	b.StopTimer()
	if cs, ok := st.(CacheStatser); ok {
		stats := cs.CacheStats()
		b.ReportMetric(float64(stats.Hits)/float64(b.N), "cachehits/op")
		b.ReportMetric(float64(stats.Misses)/float64(b.N), "cachemisses/op")
		b.ReportMetric(float64(stats.Evictions)/float64(b.N), "cacheevictions/op")
	}
}

// BenchmarkOOCJoin sweeps the memory hierarchy: the same AND join of
// t periods at m=2^24 against (a) the all-resident store, (b) the cold
// tier with every span cached (the steady state of a working set that
// fits PTM_BLOCKCACHE_BYTES), and (c) the cold tier with a degenerate
// 1-byte cache, so every iteration reloads its spans from the mapped
// segment after madvise(DONTNEED) — the page-fault-bounded floor. t=4
// runs the register kernel, t=20 the tiled kernel. The key=value name
// segments (tier, pagecache, budget, m, t) land in BENCH_pr9.json as
// structured params via cmd/benchjson.
func BenchmarkOOCJoin(b *testing.B) {
	for _, periods := range []int{4, 20} {
		benchOOCJoin(b, periods)
	}
}

func benchOOCJoin(b *testing.B, periods int) {
	recs := oocRecords(b, periods)

	fmtName := func(tier, extra string) string {
		s := fmt.Sprintf("tier=%s", tier)
		if extra != "" {
			s += "/" + extra
		}
		return fmt.Sprintf("%s/m=%d/t=%d", s, oocM, periods)
	}

	b.Run(fmtName("resident", ""), func(b *testing.B) {
		m, err := NewMem(0)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := m.Ingest(rec); err != nil {
				b.Fatal(err)
			}
		}
		benchJoin(b, m, periods)
	})

	coldStore := func(b *testing.B, cacheBytes int64) *Tiered {
		b.Helper()
		ts, err := OpenTiered(b.TempDir(), TieredOptions{
			// A 1-byte budget freezes every ingest immediately: the
			// whole data set lives cold, 10^6x the budget.
			ResidentBudget: 1,
			CacheBytes:     cacheBytes,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			//ptmlint:allow errdrop -- benchmark teardown
			_ = ts.Close()
		})
		for _, rec := range recs {
			clone := &record.Record{Location: rec.Location, Period: rec.Period, Bitmap: rec.Bitmap.Clone()}
			if _, err := ts.Ingest(clone); err != nil {
				b.Fatal(err)
			}
		}
		if st := ts.Stats(); st.ColdRecords != periods {
			b.Fatalf("dataset not fully cold: %+v", st)
		}
		return ts
	}

	b.Run(fmtName("cold", "pagecache=warm/budget=1"), func(b *testing.B) {
		ts := coldStore(b, 0) // default cache holds the whole working set
		benchJoin(b, ts, periods)
	})

	b.Run(fmtName("cold", "pagecache=evicted/budget=1"), func(b *testing.B) {
		ts := coldStore(b, 1) // every unpin evicts; every Get reloads
		benchJoin(b, ts, periods)
	})
}
