package main

// period-upload: the write path. Every period, vehicles report to 64
// RSUs (report phase), each RSU uploads its record over one of two
// transport clients into a WAL-backed Durable on store.Mem (upload
// phase, closed loop), and the authority reads a few estimates over the
// periods just uploaded (readback phase). A run is a fixed number of
// periods, sized from the measured time at about this host's pace, so
// the store ends the same size however fast the program runs.

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"ptm/internal/record"
	"ptm/internal/transport"
)

type uploadParams struct {
	sites          int
	minVol, maxVol float64 // vehicles per period, drawn log-uniform per site
	persistent     float64 // share of each site's vehicles that pass every period
	pool           int     // transient vehicle pool
	readback       int     // point and p2p queries, each, per period
	maxT           int     // readback windows cover the latest 2..maxT periods
	warmup         int     // untimed periods run during set-up
	periodRate     float64 // timed periods per measured second (fixed work, sized from --seconds)
	maxReadback    float64 // property: readback's share of the timed section stays below this
}

var defaultUpload = uploadParams{
	sites: 64, minVol: 1000, maxVol: 32000, persistent: 0.15, pool: 1 << 16,
	readback: 64, maxT: 8, warmup: 2, periodRate: 20, maxReadback: 0.2,
}

type uploadEnv struct {
	fleet   *fleet
	srv     *server
	clients []*transport.Client
	ledger  *ledger
	period  record.PeriodID
	setup   *tally // what set-up uploaded
	checked estimateCheck
}

func (e *uploadEnv) close() error {
	e.fleet.close()
	return errors.Join(closeClients(e.clients), e.srv.close())
}

func setupUpload(o runOpts, p uploadParams, dir string, tr *tracer) (*uploadEnv, error) {
	r := rng(o.seed, 1)
	vols := logUniformVolumes(r, p.sites, p.minVol, p.maxVol)
	locs := locations(r, p.sites)
	specs := make([]siteSpec, p.sites)
	for i := range specs {
		n := int(math.Round(vols[i]))
		specs[i] = siteSpec{loc: locs[i], expected: float64(n), vehicles: n, persistent: int(math.Round(float64(n) * p.persistent))}
	}
	f, err := newFleet(o.seed, specs, p.pool, 2)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(dir, serverOpts{}, tr)
	if err != nil {
		f.close()
		return nil, err
	}
	clients, err := dial(srv.addr, 2)
	if err != nil {
		f.close()
		return nil, errors.Join(err, srv.close())
	}
	e := &uploadEnv{fleet: f, srv: srv, clients: clients, ledger: newLedger(true), setup: &tally{}}
	for i := 0; i < p.warmup; i++ {
		if err := e.runPeriod(e.setup, p, nil, false); err != nil {
			return nil, errors.Join(err, e.close())
		}
	}
	if e.setup.failed > 0 {
		return nil, errors.Join(fmt.Errorf("warm-up: %w", e.setup.firstErr), e.close())
	}
	return e, nil
}

// runPeriod runs the next period's report, upload and (optionally)
// readback phases. The readback's answers are checked right away, and
// the generator then drops the records no later window reads.
func (e *uploadEnv) runPeriod(t *tally, p uploadParams, tr *tracer, readback bool) error {
	e.period++
	recs, rt, err := e.fleet.reportPhase(e.period, tr)
	if err != nil {
		return err
	}
	t.addReports(rt)
	e.ledger.produced(recs)
	t.uploadPhase(recs, e.clients, tr)
	if readback {
		plan := &planQueue{qs: e.readbackPlan(p)}
		n := len(t.done)
		t.queryPhase(plan.pop, e.clients, tr)
		e.checked.verify(e.ledger, t.done[n:])
	}
	if e.period >= record.PeriodID(p.maxT) {
		e.ledger.forget(e.period - record.PeriodID(p.maxT) + 1)
	}
	return nil
}

// readbackPlan draws the period's readback: point queries at random
// sites and p2p queries between random site pairs, each over the
// latest t periods.
func (e *uploadEnv) readbackPlan(p uploadParams) []*query {
	r := rng(e.fleet.seed, 2, uint64(e.period))
	sites := e.fleet.sites
	window := func() []record.PeriodID {
		t := 2 + r.IntN(min(p.maxT, int(e.period))-1)
		ps := make([]record.PeriodID, t)
		for i := range ps {
			ps[i] = e.period - record.PeriodID(t-1-i)
		}
		return ps
	}
	qs := make([]*query, 0, 2*p.readback)
	for k := 0; k < p.readback; k++ {
		a := sites[r.IntN(len(sites))]
		ps := window()
		qs = append(qs, &query{a: a.loc, periods: ps, bytes: pointBytes(len(ps), a.m)})
		b := sites[r.IntN(len(sites)-1)]
		if b == a {
			b = sites[len(sites)-1]
		}
		ps = window()
		qs = append(qs, &query{p2p: true, a: a.loc, b: b.loc, periods: ps, bytes: p2pBytes(len(ps), a.m, b.m)})
	}
	return qs
}

func runPeriodUpload(o runOpts, p uploadParams, tr *tracer) (*outcome, error) {
	rss := startRSS()
	e, setups, err := repeatSetup(o.setups, o.dir,
		func(dir string) (*uploadEnv, error) { return setupUpload(o, p, dir, tr) },
		(*uploadEnv).close)
	if err != nil {
		rss.finish()
		return nil, err
	}

	t := &tally{}
	wal0, est0 := e.srv.durable.LogStats(), e.srv.durable.EstCacheStats()
	tr.restart()
	start := time.Now()
	for i := 0; i < max(1, int(p.periodRate*o.seconds.Seconds())); i++ {
		if err := e.runPeriod(t, p, tr, true); err != nil {
			rss.finish()
			return nil, errors.Join(err, e.close())
		}
	}
	elapsed := time.Since(start)
	spans := tr.stop()
	walStats := subWAL(e.srv.durable.LogStats(), wal0)
	est := subEst(e.srv.durable.EstCacheStats(), est0)
	peak := rss.finish()

	e.ledger.ack(e.setup.acked)
	e.ledger.ack(t.acked)
	payload := e.setup.payloadBytes + t.payloadBytes
	walBytes, err := e.srv.walBytes()
	if err != nil {
		return nil, errors.Join(err, e.close())
	}

	out := &outcome{attempted: t.attempted, failed: t.failed, samples: sampleCounts(t), spans: spans}
	out.e2e = endToEndMetrics(t, setups, walBytes, payload, peak)
	readbackShare := wallOf(t.queryPhases).Seconds() / elapsed.Seconds()
	out.props = map[string]float64{"readback_share": readbackShare, "periods": float64(e.period)}
	if t.firstErr != nil {
		out.check("no_failed_ops", false, "%d of %d operations failed, first: %v", t.failed, t.attempted, t.firstErr)
	}
	out.check("readback_share", readbackShare < p.maxReadback,
		"readback queries took %.3f of the timed section, want < %.2f (the workload is the write path)", readbackShare, p.maxReadback)
	out.check("reports_folded", t.reportsFolded == uint64(t.reports), "RSUs folded %d of %d reports", t.reportsFolded, t.reports)
	if tr != nil {
		out.layers = layerMetrics(spans, t, counters{walStats: walStats, walBytes: walBytes, payload: payload, est: est}, false)
	}

	out.checkEstimates(&e.checked)
	out.checkListed(e.ledger, e.clients[0])
	e.fleet.close()
	if err := errors.Join(closeClients(e.clients), e.srv.close()); err != nil {
		return nil, err
	}
	out.checkRecovery(e.ledger, filepath.Join(e.srv.dir, "wal"))
	return out, nil
}
