package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"ptm/internal/core"
	"ptm/internal/store"
	"ptm/internal/wal"
)

// repeatSetup sets up n times and keeps the last environment; the
// earlier ones are torn down. It returns each set-up's duration in
// seconds. Set-up i works in its own directory under dir.
func repeatSetup[E any](n int, dir string, setup func(dir string) (E, error), teardown func(E) error) (E, []float64, error) {
	var env E
	var secs []float64
	for i := 0; i < n; i++ {
		d := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		e, err := setup(d)
		if err != nil {
			return env, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if i == n-1 {
			return e, secs, nil
		}
		if err := teardown(e); err != nil {
			return env, nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
		}
		if err := os.RemoveAll(d); err != nil {
			return env, nil, err
		}
	}
	return env, secs, nil
}

// planQueue hands out a fixed list of queries.
type planQueue struct {
	qs   []*query
	next atomic.Int64
}

func (p *planQueue) pop() *query {
	i := p.next.Add(1) - 1
	if i >= int64(len(p.qs)) {
		return nil
	}
	return p.qs[i]
}

// chunks bounds how many chronological chunks a timed section's
// samples are split into: each end-to-end statistic is computed per
// chunk (about a second of a 20-second run) and the median over the
// chunks is reported, so a burst of interference from the host moves a
// chunk or two rather than the result.
const chunks = 20

// robustQuantile is the median over chronological chunks of each
// chunk's q-quantile, with as many chunks (at most chunks) as keep
// minPer samples in each.
func robustQuantile(xs []float64, q float64, minPer int) float64 {
	k := min(max(len(xs)/minPer, 1), chunks)
	per := make([]float64, k)
	for i := range per {
		per[i] = quantile(slices.Clone(xs[i*len(xs)/k:(i+1)*len(xs)/k]), q)
	}
	return median(per)
}

// robustRate is the median over chronological chunks of phases of each
// chunk's work per second of phase wall time.
func robustRate(ps []phase) float64 {
	k := min(len(ps), chunks)
	if k == 0 {
		return 0
	}
	per := make([]float64, k)
	for i := range per {
		var n int
		var wall time.Duration
		for _, p := range ps[i*len(ps)/k : (i+1)*len(ps)/k] {
			n += p.n
			wall += p.wall
		}
		per[i] = ratio(float64(n), wall.Seconds())
	}
	return median(per)
}

// Minimum samples per chunk: a median needs a few hundred, a 99th
// percentile a thousand (ten beyond it).
const (
	minPerMedian = 200
	minPerTail   = 1000
)

// endToEndMetrics derives the end-to-end metrics of a timed section.
func endToEndMetrics(t *tally, setups []float64, stored, payload int64, rss float64) map[string]float64 {
	return map[string]float64{
		"setup_s":               median(setups),
		"upload_p50_ms":         robustQuantile(t.uploadMs, 0.50, minPerMedian),
		"upload_p99_ms":         robustQuantile(t.uploadMs, 0.99, minPerTail),
		"upload_records_per_s":  robustRate(t.uploadPhases),
		"reports_per_s":         robustRate(t.reportPhases),
		"point_p50_us":          robustQuantile(t.pointUs, 0.50, minPerMedian),
		"point_p99_us":          robustQuantile(t.pointUs, 0.99, minPerTail),
		"p2p_p50_us":            robustQuantile(t.p2pUs, 0.50, minPerMedian),
		"p2p_p99_us":            robustQuantile(t.p2pUs, 0.99, minPerTail),
		"queries_per_s":         robustRate(t.queryPhases),
		"stored_bytes_per_byte": ratio(float64(stored), float64(payload)),
		"peak_rss_mb":           rss,
	}
}

func sampleCounts(t *tally) map[string]int {
	return map[string]int{
		"uploads":       len(t.uploadMs),
		"point_queries": len(t.pointUs),
		"p2p_queries":   len(t.p2pUs),
		"reports":       int(t.reports),
		"attempted":     t.attempted,
		"failed":        t.failed,
	}
}

// counters are the per-layer inputs that come from the program's own
// counters and the generator's knowledge rather than from spans.
type counters struct {
	walStats  wal.Stats // delta over the timed section, summed over servers
	walBytes  int64
	payload   int64
	est       core.EstCacheStats // delta over the timed section, summed over servers
	cache     store.CacheStats   // delta over the timed section
	coldShare float64
	cross     float64
	lag       uint64
	lateP99   float64
}

// layerMetrics derives the per-layer metrics of a traced run. Layers a
// workload does not reach read 0 (the router and cluster layers on the
// single-node workloads, the block cache on resident stores).
func layerMetrics(spans []span, t *tally, c counters, clustered bool) map[string]float64 {
	tot := totals(spans)
	collectNs := tot.childNs[kPoint][kStoreCollect] + tot.childNs[kP2P][kStoreCollect]
	collectN := tot.childCnt[kPoint][kStoreCollect] + tot.childCnt[kP2P][kStoreCollect]
	coreNs := tot.ns[kPoint] + tot.ns[kP2P] - collectNs
	var joinBytes int64
	for _, q := range t.done {
		if !q.cross {
			joinBytes += q.bytes
		}
	}
	l := map[string]float64{
		"vhash.encode_ns":              tot.perWork(kEncode),
		"rsu.report_ns":                tot.perWork(kReport),
		"rsu.fold_ratio":               ratio(float64(t.reportsFolded), float64(t.reports)),
		"transport.upload_self_us":     tot.selfByKind([]kind{kClientUpload}, []kind{kIngest}) / 1e3,
		"transport.query_self_us":      tot.selfByKind([]kind{kClientPoint}, []kind{kPoint}) / 1e3,
		"central.ingest_us":            tot.mean(kIngest) / 1e3,
		"wal.self_us":                  tot.selfLinked(kIngest, kStoreIngest) / 1e3,
		"wal.syncs_per_append":         ratio(float64(c.walStats.Syncs), float64(c.walStats.Appends)),
		"wal.bytes_per_payload_byte":   ratio(float64(c.walBytes), float64(c.payload)),
		"store.ingest_us":              tot.childMean(kIngest, kStoreIngest) / 1e3,
		"store.collect_us":             ratio(float64(collectNs), float64(collectN)) / 1e3,
		"store.blockcache_hit_ratio":   ratio(float64(c.cache.Hits), float64(c.cache.Hits+c.cache.Misses)),
		"store.blockcache_evictions":   float64(c.cache.Evictions),
		"store.cold_read_share":        c.coldShare,
		"core.point_us":                tot.selfLinked(kPoint, kStoreCollect) / 1e3,
		"core.p2p_us":                  tot.selfLinked(kP2P, kStoreCollect) / 1e3,
		"core.join_gbps":               ratio(float64(joinBytes), float64(coreNs)),
		"core.estcache_hit_ratio":      ratio(float64(c.est.Hits), float64(c.est.Hits+c.est.Misses)),
		"core.estcache_invalidations":  float64(c.est.Invalidations),
		"router.cross_partition_share": c.cross,
		"cluster.lag_after_ship":       float64(c.lag),
		"gen.late_p99_ms":              c.lateP99,
		"failed_ratio":                 ratio(float64(t.failed), float64(t.attempted)),
	}
	if clustered {
		l["router.upload_self_us"] = l["transport.upload_self_us"]
		l["router.query_self_us"] = tot.selfByKind([]kind{kClientPoint, kClientP2P}, []kind{kPoint, kP2P, kFetch}) / 1e3
		l["cluster.ship_ms"] = tot.mean(kShip) / 1e6
	} else {
		l["router.upload_self_us"] = 0
		l["router.query_self_us"] = 0
		l["cluster.ship_ms"] = 0
	}
	return l
}

func subWAL(a, b wal.Stats) wal.Stats {
	return wal.Stats{Appends: a.Appends - b.Appends, Syncs: a.Syncs - b.Syncs, Rotations: a.Rotations - b.Rotations}
}

func addWAL(a, b wal.Stats) wal.Stats {
	return wal.Stats{Appends: a.Appends + b.Appends, Syncs: a.Syncs + b.Syncs, Rotations: a.Rotations + b.Rotations}
}

func subEst(a, b core.EstCacheStats) core.EstCacheStats {
	return core.EstCacheStats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Invalidations: a.Invalidations - b.Invalidations}
}

func addEst(a, b core.EstCacheStats) core.EstCacheStats {
	return core.EstCacheStats{Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Invalidations: a.Invalidations + b.Invalidations}
}
