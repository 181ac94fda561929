package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"ptm/internal/dsrc"
	"ptm/internal/lpc"
	"ptm/internal/pki"
	"ptm/internal/record"
	"ptm/internal/rsu"
	"ptm/internal/vhash"
)

const (
	// loadFactor is the system-wide f of Eq. (2).
	loadFactor = 2.0
	// reprBits is the representative-bit count s (the paper recommends 3).
	reprBits = 3
	// poolStride walks the transient pool; odd, so a walk visits
	// len(pool) distinct identities before repeating.
	poolStride = 0x9e3779b1
)

// siteSpec describes one RSU location.
type siteSpec struct {
	loc vhash.LocationID
	// expected is the historical volume the RSU sizes its bitmap from.
	expected float64
	// vehicles pass the RSU every period; the first persistent of them
	// are the same vehicles every period, the rest are drawn fresh from
	// the transient pool.
	vehicles, persistent int
}

// site is one RSU with its radio channel and persistent fleet.
type site struct {
	siteSpec
	m     int
	fleet []vhash.Identity
	ch    *dsrc.Channel
	rsu   *rsu.RSU
}

// fleet is the generator's vehicles and RSUs. The vehicles are the
// generator's; the channels and RSUs are the program's.
type fleet struct {
	seed  uint64
	sites []*site
	pool  []vhash.Identity // transient vehicles; length a power of two
	// shares assigns sites to the report phase's workers, balanced by
	// vehicle count.
	shares [][]*site
	bufs   [][]uint64
	// synthetic: vehicles are the persistent fleet only, and the
	// transient traffic is drawn from the PRNG straight into each record
	// after the period ends (outside the report phase's timing).
	synthetic bool
}

// newFleet builds the identities, credentials, channels and RSUs.
func newFleet(seed uint64, specs []siteSpec, poolSize, workers int) (*fleet, error) {
	if poolSize&(poolSize-1) != 0 {
		return nil, fmt.Errorf("transient pool size %d is not a power of two", poolSize)
	}
	now := time.Now()
	auth, err := pki.NewAuthority(now, 365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	f := &fleet{seed: seed, pool: make([]vhash.Identity, poolSize)}
	for i := range f.pool {
		id, err := vhash.NewSeededIdentity(vhash.VehicleID(1<<62|uint64(i)), reprBits, seed)
		if err != nil {
			return nil, err
		}
		f.pool[i] = *id
	}
	for i, sp := range specs {
		if sp.vehicles-sp.persistent > poolSize {
			return nil, fmt.Errorf("site %d: %d transient vehicles exceed the pool of %d", i, sp.vehicles-sp.persistent, poolSize)
		}
		m, err := lpc.BitmapSize(sp.expected, loadFactor)
		if err != nil {
			return nil, err
		}
		s := &site{siteSpec: sp, m: m, fleet: make([]vhash.Identity, sp.persistent)}
		for j := range s.fleet {
			id, err := vhash.NewSeededIdentity(vhash.VehicleID(uint64(i+1)<<32|uint64(j)), reprBits, seed)
			if err != nil {
				return nil, err
			}
			s.fleet[j] = *id
		}
		cred, err := auth.IssueRSU(sp.loc, now, 365*24*time.Hour)
		if err != nil {
			return nil, err
		}
		if s.ch, err = dsrc.NewChannel(dsrc.Config{Seed: int64(seed)}); err != nil {
			return nil, err
		}
		if s.rsu, err = rsu.New(cred, s.ch, loadFactor, nil); err != nil {
			return nil, err
		}
		f.sites = append(f.sites, s)
	}
	f.shares = balance(f.sites, workers)
	f.bufs = make([][]uint64, workers)
	return f, nil
}

// balance splits sites over workers, largest first onto the least
// loaded worker.
func balance(sites []*site, workers int) [][]*site {
	order := append([]*site(nil), sites...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].vehicles > order[j].vehicles })
	shares := make([][]*site, workers)
	load := make([]int, workers)
	for _, s := range order {
		w := 0
		for i := range load {
			if load[i] < load[w] {
				w = i
			}
		}
		shares[w] = append(shares[w], s)
		load[w] += s.vehicles
	}
	return shares
}

func (f *fleet) close() {
	for _, s := range f.sites {
		s.ch.Close()
	}
}

// reportTally is what one report phase did.
type reportTally struct {
	wall      time.Duration
	sent      int64
	folded    uint64
	sendFails int64
}

// reportPhase runs one measurement period at every site: StartPeriod,
// every vehicle encodes its index (Identity.Index) and reports it over
// the channel into the RSU, then EndPeriod. Each worker encodes one
// site's vehicles into a buffer and then sends the buffer, so the
// traced run times the two layers as blocks, with two clock reads per
// site and layer. The records come back in site order.
func (f *fleet) reportPhase(p record.PeriodID, tr *tracer) ([]*record.Record, reportTally, error) {
	var t reportTally
	start := time.Now()
	for _, s := range f.sites {
		if err := s.rsu.StartPeriod(p, s.expected); err != nil {
			return nil, t, err
		}
	}
	fails := make([]int64, len(f.shares))
	var wg sync.WaitGroup
	for w := range f.shares {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, s := range f.shares[w] {
				f.bufs[w] = f.encode(f.bufs[w][:0], s, p, tr)
				fails[w] += send(s, p, f.bufs[w], tr)
			}
		}(w)
	}
	wg.Wait()
	recs := make([]*record.Record, len(f.sites))
	for i, s := range f.sites {
		rec, err := s.rsu.EndPeriod()
		if err != nil {
			return nil, t, err
		}
		recs[i] = rec
		t.folded += s.rsu.Stats().ReportsSeen
		t.sent += int64(s.vehicles)
	}
	for _, n := range fails {
		t.sendFails += n
	}
	t.wall = time.Since(start)
	if f.synthetic {
		for _, rec := range recs {
			transient(f.seed, rec)
		}
	}
	return recs, t, nil
}

// transient ORs a period's transient traffic into a record: words with
// about 37.5% of their bits set (a AND (b OR c)), close to the one
// fraction of a bitmap loaded at n/m = 1/f.
func transient(seed uint64, rec *record.Record) {
	r := rng(seed, 3, uint64(rec.Location), uint64(rec.Period))
	words := rec.Bitmap.Uint64s()
	for i := range words {
		words[i] |= r.Uint64() & (r.Uint64() | r.Uint64())
	}
}

// encode appends the index every vehicle passing s in period p reports.
func (f *fleet) encode(buf []uint64, s *site, p record.PeriodID, tr *tracer) []uint64 {
	t0 := time.Now()
	for j := range s.fleet {
		buf = append(buf, s.fleet[j].Index(s.loc, s.m))
	}
	mask := uint64(len(f.pool) - 1)
	off := mix(f.seed, uint64(s.loc), uint64(p))
	for j := 0; j < s.vehicles-s.persistent; j++ {
		buf = append(buf, f.pool[(off+uint64(j)*poolStride)&mask].Index(s.loc, s.m))
	}
	if tr != nil {
		tr.add(kEncode, -1, len(buf), t0, time.Now())
	}
	return buf
}

// send reports every index to the site's RSU and returns the failures.
func send(s *site, p record.PeriodID, idx []uint64, tr *tracer) int64 {
	t0 := time.Now()
	var fails int64
	for _, ix := range idx {
		if err := s.ch.Send(dsrc.Report{Period: p, Index: ix}); err != nil {
			fails++
		}
	}
	if tr != nil {
		tr.add(kReport, -1, len(idx), t0, time.Now())
	}
	return fails
}

// mix derives a 64-bit value from its inputs (SplitMix64 finalizer).
func mix(xs ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, x := range xs {
		h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// rng returns a PRNG seeded from the workload seed and a stream name.
func rng(seed uint64, stream ...uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, mix(stream...)))
}

// logUniformVolumes draws n volumes log-uniform over [lo, hi], volume i
// from the i-th of n equal-width strata of the log range, so the mix of
// sizes (and the total) barely moves with the seed.
func logUniformVolumes(r *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	span := math.Log(hi / lo)
	for i := range out {
		out[i] = lo * math.Exp(span*(float64(i)+r.Float64())/float64(n))
	}
	return out
}

// locations draws n distinct nonzero location IDs.
func locations(r *rand.Rand, n int) []vhash.LocationID {
	seen := make(map[vhash.LocationID]bool, n)
	out := make([]vhash.LocationID, 0, n)
	for len(out) < n {
		loc := vhash.LocationID(r.Uint64() >> 1)
		if loc == 0 || seen[loc] {
			continue
		}
		seen[loc] = true
		out = append(out, loc)
	}
	return out
}
