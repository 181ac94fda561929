package main

import (
	"fmt"
	"sync"
	"time"

	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
)

// uploader is the write half of transport.Client and router.Router.
type uploader interface {
	UploadBatch(recs []*record.Record) (int, error)
}

// querier is the query half of transport.Client and router.Router.
type querier interface {
	QueryPointPersistent(loc vhash.LocationID, periods []record.PeriodID) (float64, error)
	QueryPointToPointPersistent(a, b vhash.LocationID, periods []record.PeriodID) (float64, error)
}

// query is one estimate request and, once run, its answer.
type query struct {
	p2p     bool
	a, b    vhash.LocationID
	periods []record.PeriodID
	// bytes is the join's operand bytes after expansion to the common
	// size, known to the generator from the record sizes.
	bytes int64
	// cross marks a point-to-point pair whose locations have different
	// partition leaders (cluster only).
	cross bool

	est float64
	err error
}

func (q *query) run(c querier) {
	if q.p2p {
		q.est, q.err = c.QueryPointToPointPersistent(q.a, q.b, q.periods)
	} else {
		q.est, q.err = c.QueryPointPersistent(q.a, q.periods)
	}
}

// phase is one run of a phase: the work it completed and its wall time.
type phase struct {
	n    int
	wall time.Duration
}

func wallOf(ps []phase) time.Duration {
	var d time.Duration
	for _, p := range ps {
		d += p.wall
	}
	return d
}

// tally accumulates what the timed section did. Samples and phases are
// kept in the order they completed.
type tally struct {
	uploadMs          []float64
	pointUs, p2pUs    []float64
	uploadPhases      []phase // records acked per upload phase
	queryPhases       []phase // queries answered per query phase
	reportPhases      []phase // reports folded per report phase
	reports           int64
	reportsFolded     uint64
	attempted, failed int
	firstErr          error
	acked             []recKey
	done              []*query
	payloadBytes      int64 // payload of the acked records
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.uploadMs = append(t.uploadMs, o.uploadMs...)
	t.pointUs = append(t.pointUs, o.pointUs...)
	t.p2pUs = append(t.p2pUs, o.p2pUs...)
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.acked = append(t.acked, o.acked...)
	t.done = append(t.done, o.done...)
	t.payloadBytes += o.payloadBytes
	t.uploadPhases = append(t.uploadPhases, o.uploadPhases...)
	t.queryPhases = append(t.queryPhases, o.queryPhases...)
	t.reportPhases = append(t.reportPhases, o.reportPhases...)
	t.reports += o.reports
	t.reportsFolded += o.reportsFolded
}

func (t *tally) addReports(r reportTally) {
	t.reports += r.sent
	t.reportsFolded += r.folded
	t.reportPhases = append(t.reportPhases, phase{int(r.sent), r.wall})
	if r.sendFails > 0 {
		t.attempted += int(r.sendFails)
		t.fail(fmt.Errorf("%d vehicle reports failed to send", r.sendFails))
	}
}

// uploadOne uploads one RSU's record and accounts for it, reporting
// whether it was acked. The latency runs from since (the call for
// closed loops, the due time for open loops) to the ack.
func (t *tally) uploadOne(c uploader, rec *record.Record, since time.Time, tr *tracer) bool {
	t0 := time.Now()
	n, err := c.UploadBatch([]*record.Record{rec})
	end := time.Now()
	tr.add(kClientUpload, -1, 1, t0, end)
	t.attempted++
	if err == nil && n != 1 {
		err = fmt.Errorf("upload acked %d of 1 records", n)
	}
	if err != nil {
		t.fail(fmt.Errorf("upload loc=%d period=%d: %w", rec.Location, rec.Period, err))
		return false
	}
	t.uploadMs = append(t.uploadMs, ms(end.Sub(since)))
	t.acked = append(t.acked, keyOf(rec))
	t.payloadBytes += int64(rec.Size() / 8)
	return true
}

// queryOne runs one query and accounts for it, timing from since.
func (t *tally) queryOne(c querier, q *query, since time.Time, tr *tracer) {
	t0 := time.Now()
	q.run(c)
	end := time.Now()
	k := kClientPoint
	if q.p2p {
		k = kClientP2P
	}
	tr.add(k, -1, 1, t0, end)
	t.attempted++
	if q.err != nil {
		t.fail(fmt.Errorf("query %+v: %w", *q, q.err))
		return
	}
	lat := us(end.Sub(since))
	if q.p2p {
		t.p2pUs = append(t.p2pUs, lat)
	} else {
		t.pointUs = append(t.pointUs, lat)
	}
	t.done = append(t.done, q)
}

// uploadPhase uploads recs closed-loop, one record per UploadBatch, with
// one worker per client; worker w takes every len(clients)-th record.
func (t *tally) uploadPhase(recs []*record.Record, clients []*transport.Client, tr *tracer) {
	start := time.Now()
	parts := make([]tally, len(clients))
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += len(clients) {
				parts[w].uploadOne(clients[w], recs[i], time.Now(), tr)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	n := len(t.uploadMs)
	for i := range parts {
		t.merge(&parts[i])
	}
	t.uploadPhases = append(t.uploadPhases, phase{len(t.uploadMs) - n, wall})
}

// queryPhase runs queries closed-loop with one worker per client until
// next reports there are none left.
func (t *tally) queryPhase(next func() *query, clients []*transport.Client, tr *tracer) {
	start := time.Now()
	parts := make([]tally, len(clients))
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := next(); q != nil; q = next() {
				parts[w].queryOne(clients[w], q, time.Now(), tr)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	n := len(t.pointUs) + len(t.p2pUs)
	for i := range parts {
		t.merge(&parts[i])
	}
	t.queryPhases = append(t.queryPhases, phase{len(t.pointUs) + len(t.p2pUs) - n, wall})
}

// pointBytes is the operand bytes of Eq. 12's three AND joins over t
// records of m bits: the two halves and the whole set.
func pointBytes(t, m int) int64 { return 2 * int64(t) * int64(m/8) }

// p2pBytes is the operand bytes of Eq. 21: the AND join at each
// location plus the OR of the two joins at the larger size.
func p2pBytes(t, ma, mb int) int64 {
	return int64(t)*int64(ma/8) + int64(t)*int64(mb/8) + 2*int64(max(ma, mb)/8)
}
