package main

// cluster-dashboard: reads and writes together through the routers of a
// three-node, R=2 cluster. One goroutine refreshes a dashboard open loop
// at a fixed rate: every refresh is a burst of queries all due at the
// refresh time — 70% point, 30% p2p, over the latest 4 or 8 periods of
// Zipf-skewed locations, half of the p2p pairs spanning two partitions.
// The other goroutine ends a period on a fixed schedule: the RSUs'
// persistent fleets report, each RSU uploads its record through its own
// router, and every node runs one replication round (ShipNow; the
// background shippers are off). Latencies are timed from when each
// request was due.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/wal"
)

type dashParams struct {
	nodes, replicas int
	sites           int
	minVol, maxVol  float64 // vehicles per period, log-uniform per site
	persistent      float64
	pool            int     // transient vehicle pool
	preload         int     // periods uploaded during set-up
	warmQueries     int     // untimed queries during set-up
	rate            float64 // dashboard queries per second
	burst           int     // queries per refresh, all due at the refresh time
	ticks           int     // the measured time over ticks is the period length
	pointShare      float64
	windows         []int   // "latest t periods" windows
	zipf            float64 // Zipf exponent of location popularity
	crossShare      float64 // share of p2p pairs drawn across partitions
	hitRange        [2]float64
	crossRange      [2]float64
}

var defaultDashboard = dashParams{
	nodes: 3, replicas: 2, sites: 32, minVol: 2000, maxVol: 16000, persistent: 0.15,
	preload: 8, warmQueries: 500, rate: 1000, burst: 8, ticks: 40,
	pointShare: 0.7, windows: []int{4, 8}, zipf: 1.1, crossShare: 0.5,
	hitRange: [2]float64{0.2, 0.95}, crossRange: [2]float64{0.35, 0.65},
}

type dashEnv struct {
	ring    *ring
	fleet   *fleet
	ledger  *ledger
	leader  []string // partition leader per site
	latest  []atomic.Uint32
	period  record.PeriodID
	setup   *tally
	popular []int // site indices by popularity rank
}

func (e *dashEnv) close() error {
	e.fleet.close()
	return e.ring.close()
}

func setupDashboard(o runOpts, p dashParams, dir string, tr *tracer) (*dashEnv, error) {
	r := rng(o.seed, 1)
	vols := logUniformVolumes(r, p.sites, p.minVol, p.maxVol)
	locs := locations(r, p.sites)
	specs := make([]siteSpec, p.sites)
	for i := range specs {
		n := int(math.Round(vols[i] * p.persistent))
		specs[i] = siteSpec{loc: locs[i], expected: vols[i], vehicles: n, persistent: n}
	}
	// One report worker: the writer goroutine drives the RSUs itself.
	// Only the persistent fleet reports through vhash and the RSU; the
	// transient traffic is drawn into the records, which keeps the
	// writer's CPU bursts short next to the dashboard's queries.
	f, err := newFleet(o.seed, specs, 1, 1)
	if err != nil {
		return nil, err
	}
	f.synthetic = true
	rg, err := startRing(dir, p.nodes, p.replicas, tr)
	if err != nil {
		f.close()
		return nil, err
	}
	e := &dashEnv{ring: rg, fleet: f, ledger: newLedger(true), setup: &tally{}, latest: make([]atomic.Uint32, p.sites)}
	// Popularity rank r goes to the site of volume stratum 13r mod n: a
	// fixed interleave, so the Zipf head mixes small and large bitmaps
	// the same way under every seed.
	for rank := range p.sites {
		e.popular = append(e.popular, rank*13%p.sites)
	}
	for _, s := range f.sites {
		lead, err := rg.layout.Leader(s.loc)
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.leader = append(e.leader, lead.ID)
	}
	for i := 0; i < p.preload; i++ {
		e.period++
		recs, _, err := f.reportPhase(e.period, nil)
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.ledger.produced(recs)
		n, err := rg.writer.UploadBatch(recs)
		if err == nil && n != len(recs) {
			err = fmt.Errorf("preload acked %d of %d records", n, len(recs))
		}
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		for _, rec := range recs {
			e.setup.acked = append(e.setup.acked, keyOf(rec))
			e.setup.payloadBytes += int64(rec.Size() / 8)
		}
	}
	for i := range e.latest {
		e.latest[i].Store(uint32(e.period))
	}
	if err := rg.shipRound(); err != nil {
		return nil, errors.Join(err, e.close())
	}
	gen := e.queryGen(o.seed^0xa5a5, p)
	for i := 0; i < p.warmQueries; i++ {
		q := gen()
		if q.run(rg.reader); q.err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up query: %w", q.err), e.close())
		}
	}
	return e, nil
}

// queryGen returns the dashboard's query source: Zipf-popular
// locations, the latest t periods, p2p partners on the other or the
// same partition as drawn.
func (e *dashEnv) queryGen(seed uint64, p dashParams) func() *query {
	r := rng(seed, 5)
	z := rand.NewZipf(r, p.zipf, 1, uint64(len(e.fleet.sites)-1))
	pick := func() int { return e.popular[z.Uint64()] }
	window := func(latest uint32, t int) []record.PeriodID {
		ps := make([]record.PeriodID, t)
		for i := range ps {
			ps[i] = record.PeriodID(latest) - record.PeriodID(t-1-i)
		}
		return ps
	}
	return func() *query {
		a := pick()
		t := p.windows[r.IntN(len(p.windows))]
		sa := e.fleet.sites[a]
		if r.Float64() < p.pointShare {
			return &query{a: sa.loc, periods: window(e.latest[a].Load(), t), bytes: pointBytes(t, sa.m)}
		}
		cross := r.Float64() < p.crossShare
		b := -1
		for try := 0; try < 64 && b < 0; try++ {
			if c := pick(); c != a && (e.leader[c] != e.leader[a]) == cross {
				b = c
			}
		}
		if b < 0 { // the Zipf head offered no partner of the wanted kind
			for c := range e.fleet.sites {
				if c != a && (e.leader[c] != e.leader[a]) == cross {
					b = c
					break
				}
			}
		}
		if b < 0 {
			b = (a + 1) % len(e.fleet.sites)
		}
		sb := e.fleet.sites[b]
		latest := min(e.latest[a].Load(), e.latest[b].Load())
		return &query{
			p2p: true, a: sa.loc, b: sb.loc, periods: window(latest, t),
			bytes: p2pBytes(t, sa.m, sb.m), cross: e.leader[a] != e.leader[b],
		}
	}
}

// writerTally is what the writer goroutine measured.
type writerTally struct {
	tally
	mismatches int
	mismatch   string
	lag        uint64
	rounds     int
}

// endPeriod runs one tick of the writer: the period's reports, then
// every RSU's upload through the router, due one after another across
// the first half of the tick (RSU clocks end a period a little apart),
// then a ship round and the follower check.
func (e *dashEnv) endPeriod(w *writerTally, pc *pacer, start time.Time, tick time.Duration, tr *tracer) error {
	e.period++
	recs, rt, err := e.fleet.reportPhase(e.period, tr)
	if err != nil {
		return err
	}
	w.addReports(rt)
	e.ledger.produced(recs)
	n := len(w.acked)
	for i, rec := range recs {
		due := start.Add(tick / 2 * time.Duration(i) / time.Duration(len(recs)))
		if err := pc.waitUntil(due); err != nil {
			return err
		}
		if w.uploadOne(e.ring.writer, rec, due, tr) {
			e.latest[i].Store(uint32(e.period))
		}
	}
	// Open loop: the upload phase runs from the first due time to the
	// last ack, so its rate is the achieved one — the offered rate
	// unless the uploads fall behind their schedule.
	w.uploadPhases = append(w.uploadPhases, phase{len(w.acked) - n, time.Since(start)})
	t0 := time.Now()
	if err := e.ring.shipRound(); err != nil {
		w.fail(fmt.Errorf("ship round after period %d: %w", e.period, err))
	}
	tr.add(kShip, -1, len(e.ring.servers), t0, time.Now())
	w.rounds++
	for _, s := range e.ring.servers {
		for _, ps := range s.node.StatusSnapshot().Peers {
			w.lag += ps.Lag
		}
	}
	e.checkFollowers(w)
	return nil
}

// checkFollowers requires every replica of every location to hold the
// leader's periods.
func (e *dashEnv) checkFollowers(w *writerTally) {
	for _, s := range e.fleet.sites {
		lead, err := e.ring.layout.Leader(s.loc)
		if err != nil {
			w.mismatches++
			w.mismatch = err.Error()
			continue
		}
		want := e.ring.byID[lead.ID].durable.Periods(s.loc)
		for _, m := range e.ring.layout.ReplicaSet(s.loc) {
			if got := e.ring.byID[m.ID].durable.Periods(s.loc); !slices.Equal(got, want) {
				w.mismatches++
				if w.mismatch == "" {
					w.mismatch = fmt.Sprintf("period %d: loc=%d replica %s holds %d periods, leader %s %d",
						e.period, s.loc, m.ID, len(got), lead.ID, len(want))
				}
			}
		}
	}
}

func (e *dashEnv) sumStats() (wal.Stats, core.EstCacheStats) {
	var ws wal.Stats
	var es core.EstCacheStats
	for _, s := range e.ring.servers {
		ws = addWAL(ws, s.durable.LogStats())
		es = addEst(es, s.durable.EstCacheStats())
	}
	return ws, es
}

func runDashboard(o runOpts, p dashParams, tr *tracer) (*outcome, error) {
	rss := startRSS()
	e, setups, err := repeatSetup(o.setups, o.dir,
		func(dir string) (*dashEnv, error) { return setupDashboard(o, p, dir, tr) },
		(*dashEnv).close)
	if err != nil {
		rss.finish()
		return nil, err
	}

	wal0, est0 := e.sumStats()
	tr.restart()
	start := time.Now()
	deadline := start.Add(o.seconds)
	var reads tally
	var lateMs []float64
	var writes writerTally
	var readErr, writeErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		pc, err := newPacer()
		if err != nil {
			readErr = err
			return
		}
		defer pc.close()
		gen := e.queryGen(o.seed, p)
		interval := time.Duration(float64(time.Second) / p.rate)
		// Throughput is counted per block of queries, from the block's
		// first due time to its last answer.
		const block = 500
		var blockStart time.Time
		inBlock := 0
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k/p.burst*p.burst) * interval)
			if !due.Before(deadline) {
				break
			}
			if inBlock == 0 {
				blockStart = due
			}
			if readErr = pc.waitUntil(due); readErr != nil {
				return
			}
			lateMs = append(lateMs, ms(time.Since(due)))
			reads.queryOne(e.ring.reader, gen(), due, tr)
			if inBlock++; inBlock == block {
				reads.queryPhases = append(reads.queryPhases, phase{block, time.Since(blockStart)})
				inBlock = 0
			}
		}
		if inBlock > 0 {
			reads.queryPhases = append(reads.queryPhases, phase{inBlock, time.Since(blockStart)})
		}
	}()
	go func() {
		defer wg.Done()
		pc, err := newPacer()
		if err != nil {
			writeErr = err
			return
		}
		defer pc.close()
		tick := o.seconds / time.Duration(p.ticks)
		for k := 1; k < p.ticks; k++ {
			if writeErr = e.endPeriod(&writes, pc, start.Add(time.Duration(k)*tick), tick, tr); writeErr != nil {
				return
			}
		}
	}()
	wg.Wait()
	spans := tr.stop()
	wal1, est1 := e.sumStats()
	walStats, est := subWAL(wal1, wal0), subEst(est1, est0)
	peak := rss.finish()
	if err := errors.Join(readErr, writeErr); err != nil {
		return nil, errors.Join(err, e.close())
	}

	t := &reads
	t.merge(&writes.tally)
	e.ledger.ack(e.setup.acked)
	e.ledger.ack(t.acked)
	payload := e.setup.payloadBytes + t.payloadBytes
	var stored, walBytes int64
	for _, s := range e.ring.servers {
		b, err := dirBytes(s.dir)
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		wb, err := s.walBytes()
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		stored, walBytes = stored+b, walBytes+wb
	}
	var p2p, cross int
	for _, q := range t.done {
		if q.p2p {
			p2p++
			if q.cross {
				cross++
			}
		}
	}
	crossShare := ratio(float64(cross), float64(p2p))
	hitRatio := ratio(float64(est.Hits), float64(est.Hits+est.Misses))
	lateP99 := quantile(lateMs, 0.99)

	out := &outcome{attempted: t.attempted, failed: t.failed, samples: sampleCounts(t), spans: spans}
	out.samples["ship_rounds"] = writes.rounds
	out.e2e = endToEndMetrics(t, setups, stored, payload, peak)
	out.props = map[string]float64{
		"estcache_hit_ratio": hitRatio, "cross_partition_share": crossShare,
		"query_rate": p.rate, "late_p99_ms": lateP99, "tick_s": (o.seconds / time.Duration(p.ticks)).Seconds(),
	}
	if t.firstErr != nil {
		out.check("no_failed_ops", false, "%d of %d operations failed, first: %v", t.failed, t.attempted, t.firstErr)
	}
	out.check("followers_hold_leader_periods", writes.mismatches == 0,
		"%d replica mismatches over %d ship rounds %s", writes.mismatches, writes.rounds, writes.mismatch)
	out.check("lag_after_ship", writes.lag == 0, "summed peer lag after ship rounds: %d", writes.lag)
	out.check("estcache_hit_ratio", hitRatio >= p.hitRange[0] && hitRatio <= p.hitRange[1],
		"estimate-cache hit ratio %.3f, want within %v", hitRatio, p.hitRange)
	out.check("cross_partition_share", crossShare >= p.crossRange[0] && crossShare <= p.crossRange[1],
		"cross-partition share of p2p pairs %.3f, want within %v", crossShare, p.crossRange)
	if tr != nil {
		out.layers = layerMetrics(spans, t, counters{
			walStats: walStats, walBytes: walBytes, payload: payload, est: est,
			cross: crossShare, lag: writes.lag, lateP99: lateP99,
		}, true)
	}
	var checked estimateCheck
	checked.verify(e.ledger, t.done)
	out.checkEstimates(&checked)
	out.checkListed(e.ledger, e.ring.reader)
	return out, e.close()
}
