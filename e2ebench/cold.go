package main

// cold-query: kernel-bound analyst reads. Set-up preloads sixteen
// locations with large bitmaps (2^18-2^20 bits) period by period — the
// persistent fleet reports through vhash and the RSU, transient traffic
// is drawn straight from the PRNG into the RSU's record, and each RSU
// uploads — into a Durable on a tiered store whose resident budget is a
// quarter of the payload and whose block cache holds half the cold
// bytes. The timed section is read-only: two closed-loop clients query
// random, never-repeating period subsets until the measured time is
// up, so the estimate cache never hits and reads come hot, cached-cold
// and evicted-cold. The workload's upload and report metrics come from
// the preloads of all its set-ups.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"
	"time"

	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/transport"
	"ptm/internal/vhash"
)

type coldParams struct {
	periods    int
	log2m      []int   // bitmap size per location, as log2; one entry per location
	persistent float64 // share of each location's m/f vehicles encoded through vhash
	pointT     [2]int  // point queries join t in [lo, hi] periods
	p2pT       [2]int  // p2p queries join t in [lo, hi] periods
	resident   float64 // resident budget as a share of the payload
	cache      float64 // block cache as a share of the expected cold bytes
	maxHit     float64 // property: estimate-cache hit ratio stays below this
}

var defaultCold = coldParams{
	periods:    64,
	log2m:      []int{20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 19, 19, 19, 18, 18, 18},
	persistent: 0.02,
	pointT:     [2]int{2, 24},
	p2pT:       [2]int{2, 8},
	resident:   0.25,
	cache:      0.5,
	maxHit:     0.01,
}

type coldEnv struct {
	fleet   *fleet
	srv     *server
	clients []*transport.Client
	ledger  *ledger
	payload int64
}

func (e *coldEnv) close() error {
	e.fleet.close()
	return errors.Join(closeClients(e.clients), e.srv.close())
}

func setupCold(o runOpts, p coldParams, dir string, tr *tracer, load *tally) (*coldEnv, error) {
	if p.periods > 64 {
		return nil, fmt.Errorf("cold-query plans period subsets as 64-bit masks; %d periods", p.periods)
	}
	r := rng(o.seed, 1)
	sizes := p.log2m
	locs := locations(r, len(sizes))
	specs := make([]siteSpec, len(sizes))
	var perPeriod int64
	for i, lg := range sizes {
		expected := float64(int(1)<<lg) / loadFactor
		n := int(math.Round(expected * p.persistent))
		specs[i] = siteSpec{loc: locs[i], expected: expected, vehicles: n, persistent: n}
		perPeriod += int64(1) << lg / 8
	}
	f, err := newFleet(o.seed, specs, 1, 2)
	if err != nil {
		return nil, err
	}
	f.synthetic = true
	payload := perPeriod * int64(p.periods)
	budget := int64(float64(payload) * p.resident)
	tiered := &store.TieredOptions{
		ResidentBudget: budget,
		// After the load the hot tier holds between half the budget and
		// the budget (freezes go down to half).
		CacheBytes: int64(p.cache * float64(payload-budget*3/4)),
	}
	srv, err := startServer(dir, serverOpts{tiered: tiered}, tr)
	if err != nil {
		f.close()
		return nil, err
	}
	e := &coldEnv{fleet: f, srv: srv, ledger: newLedger(false), payload: payload}
	if e.clients, err = dial(srv.addr, 2); err != nil {
		f.close()
		return nil, errors.Join(err, srv.close())
	}
	for _, c := range e.clients {
		if _, err := c.ListLocations(); err != nil {
			return nil, errors.Join(err, e.close())
		}
	}
	n := len(load.acked)
	for i := 1; i <= p.periods; i++ {
		recs, rt, err := f.reportPhase(record.PeriodID(i), tr)
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		load.addReports(rt)
		e.ledger.produced(recs)
		load.uploadPhase(recs, e.clients, tr)
	}
	if load.failed > 0 {
		return nil, errors.Join(fmt.Errorf("preload: %w", load.firstErr), e.close())
	}
	e.ledger.ack(load.acked[n:])
	return e, nil
}

// coldPlanner draws the query phase's queries on demand from one seeded
// sequence: alternately a point query at a random location over t
// random periods, and a p2p query over a pair of locations with
// different bitmap sizes, redrawing any query drawn before, so no period
// subset repeats. Drawing on demand keeps the plan as long as the
// program is fast.
type coldPlanner struct {
	sites    []*site
	p        coldParams
	deadline time.Time

	mu        sync.Mutex
	r         *rand.Rand       //ptm:guardedby mu
	seen      map[planKey]bool //ptm:guardedby mu
	exhausted bool             //ptm:guardedby mu
}

type planKey struct {
	p2p  bool
	a, b int
	mask uint64 // bit i-1 set: period i joined
}

func newColdPlanner(seed uint64, sites []*site, p coldParams, deadline time.Time) *coldPlanner {
	return &coldPlanner{sites: sites, p: p, deadline: deadline, r: rng(seed, 4), seen: make(map[planKey]bool)}
}

// pop returns the next query, or nil once the deadline has passed (or,
// with parameters admitting few distinct queries, once 1000 draws in a
// row repeated earlier ones).
func (c *coldPlanner) pop() *query {
	if time.Now().After(c.deadline) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for draws := 0; draws < 1000; draws++ {
		var k planKey
		if len(c.seen)%2 == 0 {
			k = planKey{a: c.r.IntN(len(c.sites)), mask: c.subset(c.p.pointT)}
		} else {
			k = planKey{p2p: true, a: c.r.IntN(len(c.sites)), b: c.r.IntN(len(c.sites)), mask: c.subset(c.p.p2pT)}
			if c.sites[k.a].m == c.sites[k.b].m {
				continue
			}
		}
		if c.seen[k] {
			continue
		}
		c.seen[k] = true
		var periods []record.PeriodID
		for m := k.mask; m != 0; m &= m - 1 {
			periods = append(periods, record.PeriodID(bits.TrailingZeros64(m)+1))
		}
		a := c.sites[k.a]
		q := &query{p2p: k.p2p, a: a.loc, periods: periods, bytes: pointBytes(len(periods), a.m)}
		if k.p2p {
			b := c.sites[k.b]
			q.b, q.bytes = b.loc, p2pBytes(len(periods), a.m, b.m)
		}
		return q
	}
	c.exhausted = true
	return nil
}

// subset draws t in [lo, hi] distinct periods as a mask. Caller holds mu.
func (c *coldPlanner) subset(lohi [2]int) uint64 {
	t := lohi[0] + c.r.IntN(lohi[1]-lohi[0]+1)
	var mask uint64
	for bits.OnesCount64(mask) < t {
		mask |= 1 << c.r.IntN(c.p.periods)
	}
	return mask
}

func runColdQuery(o runOpts, p coldParams, tr *tracer) (*outcome, error) {
	rss := startRSS()
	load := &tally{}
	tr.restart() // the preloads' spans count
	e, setups, err := repeatSetup(o.setups, o.dir,
		func(dir string) (*coldEnv, error) { return setupCold(o, p, dir, tr, load) },
		(*coldEnv).close)
	if err != nil {
		rss.finish()
		return nil, err
	}
	fail := func(err error) (*outcome, error) {
		rss.finish()
		return nil, errors.Join(err, e.close())
	}

	walStats := e.srv.durable.LogStats()
	hot := make(map[recKey]bool)
	for loc, periods := range e.ledger.acked {
		for _, per := range periods {
			if e.srv.tiered.Hot().Contains(loc, per) {
				hot[recKey{loc, per}] = true
			}
		}
	}
	t := &tally{}
	est0, cache0 := e.srv.durable.EstCacheStats(), e.srv.tiered.CacheStats()
	plan := newColdPlanner(o.seed, e.fleet.sites, p, time.Now().Add(o.seconds))
	t.queryPhase(plan.pop, e.clients, tr)
	spans := tr.stop()
	est := subEst(e.srv.durable.EstCacheStats(), est0)
	cache := e.srv.tiered.CacheStats()
	cache.Hits -= cache0.Hits
	cache.Misses -= cache0.Misses
	cache.Evictions -= cache0.Evictions
	peak := rss.finish()

	stored, err := dirBytes(e.srv.dir)
	if err != nil {
		return fail(err)
	}
	walBytes, err := e.srv.walBytes()
	if err != nil {
		return fail(err)
	}
	var cold, collected int
	for _, q := range t.done {
		for _, per := range q.periods {
			for _, loc := range q.locs() {
				collected++
				if !hot[recKey{loc, per}] {
					cold++
				}
			}
		}
	}
	coldShare := ratio(float64(cold), float64(collected))
	hitRatio := ratio(float64(est.Hits), float64(est.Hits+est.Misses))

	t.merge(load)
	out := &outcome{attempted: t.attempted, failed: t.failed, samples: sampleCounts(t), spans: spans}
	out.e2e = endToEndMetrics(t, setups, stored, e.payload, peak)
	out.props = map[string]float64{
		"estcache_hit_ratio": hitRatio, "cold_read_share": coldShare,
		"blockcache_evictions": float64(cache.Evictions),
		"blockcache_hit_ratio": ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses)),
	}
	if t.firstErr != nil {
		out.check("no_failed_ops", false, "%d of %d operations failed, first: %v", t.failed, t.attempted, t.firstErr)
	}
	out.check("queries_never_repeat", !plan.exhausted, "distinct queries ran out after %d", len(t.done))
	out.check("estcache_never_hits", hitRatio < p.maxHit, "estimate-cache hit ratio %.4f, want < %v", hitRatio, p.maxHit)
	out.check("cold_reads", coldShare > 0, "cold read share %.3f, want > 0", coldShare)
	out.check("blockcache_evicts", cache.Evictions > 0, "%d block-cache evictions, want > 0", cache.Evictions)
	if tr != nil {
		out.layers = layerMetrics(spans, t, counters{
			walStats: walStats, walBytes: walBytes, payload: e.payload,
			est: est, cache: cache, coldShare: coldShare,
		}, false)
	}
	out.checkListed(e.ledger, e.clients[0])
	if err := e.regenerate(out, p); err != nil {
		return fail(err)
	}
	var checked estimateCheck
	checked.verify(e.ledger, t.done)
	out.checkEstimates(&checked)
	return out, e.close()
}

// regenerate rebuilds the generator's records for the estimate check
// (the load kept only their checksums, so the generator's copies did
// not count toward the resident set) and requires them to match what
// was uploaded.
func (e *coldEnv) regenerate(out *outcome, p coldParams) error {
	sums := e.ledger.sums
	e.ledger.keep, e.ledger.sums = true, make(map[recKey]uint64, len(sums))
	for i := 1; i <= p.periods; i++ {
		recs, _, err := e.fleet.reportPhase(record.PeriodID(i), nil)
		if err != nil {
			return err
		}
		e.ledger.produced(recs)
	}
	var bad int
	for k, sum := range sums {
		if e.ledger.sums[k] != sum {
			bad++
		}
	}
	out.check("regenerated_records_match", bad == 0 && len(sums) == len(e.ledger.sums),
		"%d of %d regenerated records differ from the uploaded ones", bad, len(sums))
	return nil
}

// locs lists the locations a query reads.
func (q *query) locs() []vhash.LocationID {
	if q.p2p {
		return []vhash.LocationID{q.a, q.b}
	}
	return []vhash.LocationID{q.a}
}
