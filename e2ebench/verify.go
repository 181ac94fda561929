package main

// Correctness gates, run after the timed section. They fail the run.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"syscall"

	"ptm/internal/central"
	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

type recKey struct {
	loc    vhash.LocationID
	period record.PeriodID
}

func keyOf(r *record.Record) recKey { return recKey{r.Location, r.Period} }

// ledger is the generator's account of the records it produced and the
// set the program acknowledged. It keeps a checksum of every record and,
// while keep is set, the records themselves; the workloads drop records
// they no longer query (period-upload) or regenerate them for checking
// (cold-query), so the generator's copies do not inflate the measured
// resident set.
type ledger struct {
	keep  bool
	recs  map[recKey]*record.Record
	sums  map[recKey]uint64
	acked map[vhash.LocationID][]record.PeriodID
}

func newLedger(keep bool) *ledger {
	return &ledger{
		keep:  keep,
		recs:  make(map[recKey]*record.Record),
		sums:  make(map[recKey]uint64),
		acked: make(map[vhash.LocationID][]record.PeriodID),
	}
}

func (l *ledger) produced(recs []*record.Record) {
	for _, r := range recs {
		l.sums[keyOf(r)] = checksum(r)
		if l.keep {
			l.recs[keyOf(r)] = r
		}
	}
}

// forget drops the kept records of one period.
func (l *ledger) forget(p record.PeriodID) {
	for k := range l.recs {
		if k.period == p {
			delete(l.recs, k)
		}
	}
}

func (l *ledger) ack(keys []recKey) {
	for _, k := range keys {
		l.acked[k.loc] = append(l.acked[k.loc], k.period)
	}
}

// checksum hashes a record's location, period, size and bits.
func checksum(r *record.Record) uint64 {
	h := mix(uint64(r.Location), uint64(r.Period), uint64(r.Size()))
	for _, w := range r.Bitmap.Uint64s() {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

func (l *ledger) set(loc vhash.LocationID, periods []record.PeriodID) (*record.Set, error) {
	recs := make([]*record.Record, len(periods))
	for i, p := range periods {
		r, ok := l.recs[recKey{loc, p}]
		if !ok {
			return nil, fmt.Errorf("generator has no record loc=%d period=%d", loc, p)
		}
		recs[i] = r
	}
	return record.NewSet(recs)
}

// expect computes q's estimate in-process on the generator's records.
func (l *ledger) expect(q *query) (float64, error) {
	sa, err := l.set(q.a, q.periods)
	if err != nil {
		return 0, err
	}
	if !q.p2p {
		res, err := core.EstimatePoint(sa)
		if err != nil {
			return 0, err
		}
		return res.Estimate, nil
	}
	sb, err := l.set(q.b, q.periods)
	if err != nil {
		return 0, err
	}
	res, err := core.EstimatePointToPoint(sa, sb, reprBits)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// estimateCheck accumulates the bit-identity check over batches of
// queries.
type estimateCheck struct {
	n, bad int
	first  string
}

// verify recomputes every answered estimate in-process on the
// generator's records and counts those that are not bit-identical. Two
// workers split the recomputation.
func (c *estimateCheck) verify(l *ledger, qs []*query) {
	const workers = 2
	var bad [workers]int
	var first [workers]string
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				q := qs[i]
				want, err := l.expect(q)
				if err == nil && math.Float64bits(want) == math.Float64bits(q.est) {
					continue
				}
				bad[w]++
				if first[w] == "" {
					first[w] = fmt.Sprintf("p2p=%v a=%d b=%d periods=%v: got %v, want %v (%v)", q.p2p, q.a, q.b, q.periods, q.est, want, err)
				}
			}
		}(w)
	}
	wg.Wait()
	c.n += len(qs)
	for w := range bad {
		c.bad += bad[w]
		if c.first == "" {
			c.first = first[w]
		}
	}
}

func (o *outcome) checkEstimates(c *estimateCheck) {
	o.check("estimates_bit_identical", c.bad == 0, "%d of %d estimates differ from core in-process %s", c.bad, c.n, c.first)
}

// lister is the period listing of transport.Client and router.Router.
type lister interface {
	ListPeriods(loc vhash.LocationID) ([]record.PeriodID, error)
}

// checkListed requires Periods to list exactly the acknowledged records
// at every location.
func (o *outcome) checkListed(l *ledger, c lister) {
	var bad int
	var detail string
	for loc, acked := range l.acked {
		want := slices.Clone(acked)
		slices.Sort(want)
		got, err := c.ListPeriods(loc)
		if err != nil || !slices.Equal(got, want) {
			bad++
			if detail == "" {
				detail = fmt.Sprintf("loc=%d: listed %d periods, acked %d (%v)", loc, len(got), len(want), err)
			}
		}
	}
	o.check("acked_records_listed", bad == 0, "%d of %d locations differ %s", bad, len(l.acked), detail)
}

// checkRecovery reopens a closed WAL directory and requires every
// acknowledged record to come back bit-identical.
func (o *outcome) checkRecovery(l *ledger, walDir string) {
	d, err := central.OpenDurable(walDir, reprBits, central.DefaultShards, walOptions, 0)
	if err != nil {
		o.check("acked_records_recover", false, "reopening WAL: %v", err)
		return
	}
	var bad, n int
	var detail string
	for loc, periods := range l.acked {
		for _, p := range periods {
			n++
			rec, unpin, ok := d.Store().Lookup(loc, p)
			if ok {
				sum := checksum(rec)
				unpin()
				if sum == l.sums[recKey{loc, p}] {
					continue
				}
			}
			bad++
			if detail == "" {
				detail = fmt.Sprintf("loc=%d period=%d present=%v", loc, p, ok)
			}
		}
	}
	if err := d.Close(); err != nil && bad == 0 {
		detail = err.Error()
		bad++
	}
	o.check("acked_records_recover", bad == 0, "%d of %d acked records missing or different after reopening the WAL %s", bad, n, detail)
}

// filesystem names the filesystem dir lives on.
func filesystem(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", err
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs", 0xf2f52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}
