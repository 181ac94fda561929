// Package central implements the central server of Section II-A: it
// collects the traffic records uploaded by all RSUs at period end, stores
// them by (location, period), and answers the authority's queries — plain
// per-period volume (Eq. 1), point persistent traffic (Eq. 12), and
// point-to-point persistent traffic (Eq. 21). Because records are
// privacy-preserving bitmaps, the server never holds per-vehicle data.
//
// # Storage
//
// The server runs on a store.Store: fully resident (store.Mem, the
// default), tiered with an out-of-core cold tier of mapped checkpoint
// segments (store.Tiered), or read-only over a segment directory
// (store.Mmap). The query plane is tier-oblivious — a record served off
// a mapped segment page is bit-identical to a resident one, so every
// estimate is too (proven by the differential tests in store). Cold
// reads hand out records that view mapped pages; the server holds their
// pins exactly for the duration of the estimator call.
//
// All methods are safe for concurrent use; consistency guarantees (the
// (records, epoch) snapshot that fences the estimate cache) are the
// store's contract.
package central

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ptm/internal/bitmap"
	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/vhash"
)

// Errors. ErrDuplicate and ErrNotFound alias the store's sentinels so
// transport handlers and WAL replay match them with errors.Is no matter
// which tier produced them.
var (
	ErrDuplicate = store.ErrDuplicate
	ErrNotFound  = store.ErrNotFound
	ErrNoPeriods = errors.New("central: query names no periods")
)

// DefaultShards is the resident store's shard count used by NewServer:
// enough that a city's worth of RSUs uploading at period end rarely
// collide on a lock, small enough that cross-shard iteration stays cheap.
const DefaultShards = store.DefaultShards

// Server is the record store and query engine. The zero value is not
// usable; construct with NewServer, NewServerSharded, or
// NewServerWithStore.
type Server struct {
	st store.Store
	s  int // system-wide representative-bit count, needed by Eq. (21)

	// cache memoizes estimator results keyed by location epochs. Set at
	// construction (SetEstimateCache reconfigures it for tests and
	// benchmarks); nil disables caching — every query computes.
	cache *core.EstCache
}

// NewServer creates an empty resident server configured with the
// system-wide representative-bit parameter s (Section II-D) and
// DefaultShards lock shards.
func NewServer(s int) (*Server, error) {
	return NewServerSharded(s, DefaultShards)
}

// NewServerSharded creates an empty resident server with an explicit
// shard count, which must be a power of two in [1, 1<<12]. More shards
// admit more concurrent uploads at the cost of slower cross-shard
// iteration.
//
//ptm:exclusive constructor: the Server is not shared until it returns
func NewServerSharded(s, nShards int) (*Server, error) {
	if nShards == 0 {
		// store.NewMem treats 0 as "default"; this constructor's contract
		// predates that and rejects it.
		return nil, fmt.Errorf("central: shard count 0 is not a power of two in [1, 4096]")
	}
	st, err := store.NewMem(nShards)
	if err != nil {
		return nil, err
	}
	return NewServerWithStore(s, st)
}

// NewServerWithStore wraps an existing store — how centrald mounts the
// tiered and read-only mmap stores. The server takes over the store's
// lifecycle (CloseStore).
//
//ptm:exclusive constructor: the Server is not shared until it returns
func NewServerWithStore(s int, st store.Store) (*Server, error) {
	if s < vhash.MinS || s > vhash.MaxS {
		return nil, fmt.Errorf("central: %w", vhash.ErrInvalidS)
	}
	if st == nil {
		return nil, errors.New("central: nil store")
	}
	return &Server{
		st:    st,
		s:     s,
		cache: core.NewEstCache(core.DefaultEstCacheEntries),
	}, nil
}

// SetEstimateCache replaces the server's estimate cache with one bounded
// to capacity entries (capacity <= 0 disables caching). Counters restart
// from zero. Not synchronized with in-flight queries: call it during
// setup, before the server is shared.
//
//ptm:exclusive configuration: callers reconfigure before serving
func (s *Server) SetEstimateCache(capacity int) {
	s.cache = core.NewEstCache(capacity)
}

// EstCacheStats returns a snapshot of the estimate cache's counters
// (zeros when caching is disabled).
func (s *Server) EstCacheStats() core.EstCacheStats {
	return s.cache.Stats()
}

// S returns the configured representative-bit count.
func (s *Server) S() int { return s.s }

// Store returns the underlying record store (for stats surfaces that
// need store-specific interfaces, e.g. the block-cache counters).
func (s *Server) Store() store.Store { return s.st }

// Shards returns the resident tier's shard count (1 when the store does
// not shard).
func (s *Server) Shards() int {
	if sh, ok := s.st.(interface{ Shards() int }); ok {
		return sh.Shards()
	}
	return 1
}

// CloseStore releases the store's OS resources (mappings, files). The
// server must not be used afterwards.
func (s *Server) CloseStore() error { return s.st.Close() }

// Ingest stores one uploaded record. Duplicate (location, period) pairs
// are rejected: an RSU reports each period exactly once, so a duplicate
// indicates a replay or a misconfigured deployment.
func (s *Server) Ingest(rec *record.Record) error {
	prior, err := s.st.Ingest(rec)
	if err != nil {
		return err
	}
	if prior > 0 {
		// The location already had records, so cached estimates for it may
		// exist; the epoch bump inside the store just fenced them.
		s.cache.NoteInvalidation()
	}
	return nil
}

// Locations returns all locations with stored records, sorted.
func (s *Server) Locations() []vhash.LocationID { return s.st.Locations() }

// Periods returns the sorted periods stored for a location.
func (s *Server) Periods(loc vhash.LocationID) []record.PeriodID { return s.st.Periods(loc) }

// RecordBlobs returns the marshaled form of every record stored at loc,
// sorted by period. Cold-tier records are pinned only for the duration
// of the marshal — the returned blobs are heap copies, safe to hold and
// send. The cluster shipper uses this for full-state resync when a
// follower's WAL watermark predates checkpoint compaction.
func (s *Server) RecordBlobs(loc vhash.LocationID) ([][]byte, error) {
	periods := s.st.Periods(loc)
	if len(periods) == 0 {
		return nil, fmt.Errorf("%w: loc=%d", ErrNotFound, loc)
	}
	recs, _, unpin, err := s.st.Collect(loc, periods)
	if err != nil {
		return nil, err
	}
	defer unpin()
	blobs := make([][]byte, len(recs))
	for i, rec := range recs {
		blob, err := rec.MarshalBinary()
		if err != nil {
			return nil, err
		}
		blobs[i] = blob
	}
	return blobs, nil
}

// get assembles the record set Π for (loc, periods) together with the
// location's ingest epoch; the store reads the pair atomically, which is
// what makes the epoch a sound cache fence. The caller must call unpin
// after its last use of the set — cold-tier records view mapped pages
// that stay valid only while pinned.
func (s *Server) get(loc vhash.LocationID, periods []record.PeriodID) (*record.Set, uint64, func(), error) {
	if len(periods) == 0 {
		return nil, 0, nil, ErrNoPeriods
	}
	recs, epoch, unpin, err := s.st.Collect(loc, periods)
	if err != nil {
		return nil, 0, nil, err
	}
	set, err := record.NewSet(recs)
	if err != nil {
		unpin()
		return nil, 0, nil, err
	}
	return set, epoch, unpin, nil
}

// AndJoin returns the first-level AND join E* of loc's records over
// periods — one location's half of Eq. (21). As for
// PointToPointPersistent, every period must be stored and there must be
// at least two. The join is a fresh heap bitmap computed while the
// records are pinned, so it outlives the pin. A cluster node serves it
// to routers that finish a cross-partition point-to-point estimate
// themselves.
func (s *Server) AndJoin(loc vhash.LocationID, periods []record.PeriodID) (*bitmap.Bitmap, error) {
	set, _, unpin, err := s.get(loc, periods)
	if err != nil {
		return nil, err
	}
	defer unpin()
	if set.Len() < 2 {
		return nil, fmt.Errorf("%w: got %d", core.ErrTooFewPeriods, set.Len())
	}
	var sc *bitmap.JoinScratch // nil: the join is allocated, not leased
	e, _, err := sc.AndAll(set.Bitmaps())
	return e, err
}

// Volume estimates the plain traffic volume at loc in one period (Eq. 1).
func (s *Server) Volume(loc vhash.LocationID, p record.PeriodID) (float64, error) {
	rec, unpin, ok := s.st.Lookup(loc, p)
	if !ok {
		return 0, fmt.Errorf("%w: loc=%d period=%d", ErrNotFound, loc, p)
	}
	defer unpin()
	return core.EstimateVolume(rec)
}

// PointPersistent estimates the point persistent traffic at loc over the
// given periods (Eq. 12). Results are served from the estimate cache
// when the location has not ingested since they were computed; a hit is
// bit-identical to the cold computation.
func (s *Server) PointPersistent(loc vhash.LocationID, periods []record.PeriodID) (*core.PointResult, error) {
	set, epoch, unpin, err := s.get(loc, periods)
	if err != nil {
		return nil, err
	}
	defer unpin()
	return s.cache.Point(epoch, set, core.SplitHalves)
}

// WindowResult is one sliding-window persistent estimate.
type WindowResult struct {
	// Periods are the window's measurement periods, in order.
	Periods []record.PeriodID
	// Estimate is the persistent volume over exactly those periods.
	Estimate float64
}

// PointPersistentSliding estimates the point persistent traffic over
// every window of `window` consecutive stored periods at loc — e.g. the
// week-over-week stability series the paper's introduction motivates
// ("over the workdays of a week, over the Saturdays of several weeks").
// window must be >= 2; there must be at least `window` stored periods.
func (s *Server) PointPersistentSliding(loc vhash.LocationID, window int) ([]WindowResult, error) {
	if window < 2 {
		return nil, fmt.Errorf("central: window must be >= 2, got %d", window)
	}
	periods := s.Periods(loc)
	if len(periods) < window {
		return nil, fmt.Errorf("%w: %d periods stored at loc %d, window %d", ErrNotFound, len(periods), loc, window)
	}
	out := make([]WindowResult, 0, len(periods)-window+1)
	for i := 0; i+window <= len(periods); i++ {
		ps := periods[i : i+window]
		res, err := s.PointPersistent(loc, ps)
		if err != nil {
			return nil, fmt.Errorf("central: window %v: %w", ps, err)
		}
		win := WindowResult{Periods: append([]record.PeriodID{}, ps...), Estimate: res.Estimate}
		out = append(out, win)
	}
	return out, nil
}

// PointToPointPersistent estimates the point-to-point persistent traffic
// between locA and locB over the given periods (Eq. 21).
func (s *Server) PointToPointPersistent(locA, locB vhash.LocationID, periods []record.PeriodID) (*core.PointToPointResult, error) {
	setA, epochA, unpinA, err := s.get(locA, periods)
	if err != nil {
		return nil, err
	}
	defer unpinA()
	setB, epochB, unpinB, err := s.get(locB, periods)
	if err != nil {
		return nil, err
	}
	defer unpinB()
	return s.cache.PointToPoint(epochA, epochB, setA, setB, s.s)
}

// ODVolume estimates the single-period point-to-point volume between two
// locations: the number of vehicles that passed both during period p.
func (s *Server) ODVolume(locA, locB vhash.LocationID, p record.PeriodID) (float64, error) {
	recA, unpinA, okA := s.st.Lookup(locA, p)
	if !okA {
		return 0, fmt.Errorf("%w: loc=%d period=%d", ErrNotFound, locA, p)
	}
	defer unpinA()
	recB, unpinB, okB := s.st.Lookup(locB, p)
	if !okB {
		return 0, fmt.Errorf("%w: loc=%d period=%d", ErrNotFound, locB, p)
	}
	defer unpinB()
	res, err := core.EstimateODVolume(recA, recB, s.s)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// Snapshot serialization: a versioned stream of length-prefixed marshaled
// records, so deployments can persist and restore the store.
const (
	snapMagic   = 0x534d5450 // "PTMS"
	snapVersion = 1
)

// SaveTo writes a snapshot of all stored records. The records are sorted
// by (location, period), so the snapshot bytes do not depend on shard
// count, tiering state, or map iteration order. Each record is encoded
// into one reused scratch buffer and written out immediately — the
// writer streams, it does not materialize the store (cold records are
// pinned one at a time).
func (s *Server) SaveTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	scratch := make([]byte, 0, 64<<10)
	err := s.st.ForEachSorted(
		func(count int) error {
			var hdr [12]byte
			binary.LittleEndian.PutUint32(hdr[0:4], snapMagic)
			hdr[4] = snapVersion
			binary.LittleEndian.PutUint32(hdr[8:12], uint32(count))
			if _, err := bw.Write(hdr[:]); err != nil {
				return fmt.Errorf("central: writing snapshot header: %w", err)
			}
			return nil
		},
		func(rec *record.Record) error {
			// Reserve the 4-byte length prefix, append the record behind
			// it, then patch the prefix — one buffered write per record,
			// zero per-record allocations once scratch has grown.
			scratch = append(scratch[:0], 0, 0, 0, 0)
			blob, err := rec.AppendBinary(scratch)
			if err != nil {
				return err
			}
			scratch = blob
			binary.LittleEndian.PutUint32(scratch[0:4], uint32(len(scratch)-4))
			if _, err := bw.Write(scratch); err != nil {
				return fmt.Errorf("central: writing record: %w", err)
			}
			return nil
		})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// LoadFrom restores records from a snapshot produced by SaveTo, or from
// a cold checkpoint segment (the on-disk format store.Tiered freezes —
// the first four bytes distinguish the two). Records already present are
// skipped: restore is idempotent, which is what lets a tiered store
// recover from a WAL checkpoint that includes its own frozen records.
func (s *Server) LoadFrom(r io.Reader) error {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil {
		return fmt.Errorf("central: reading snapshot header: %w", err)
	}
	if binary.LittleEndian.Uint32(magic) == store.SegMagic {
		return s.loadSegment(br)
	}
	return s.loadSnapshot(br)
}

// loadSnapshot reads the native SaveTo stream.
func (s *Server) loadSnapshot(br *bufio.Reader) error {
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("central: reading snapshot header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != snapMagic {
		return errors.New("central: bad snapshot magic")
	}
	if hdr[4] != snapVersion {
		return fmt.Errorf("central: unsupported snapshot version %d", hdr[4])
	}
	count := binary.LittleEndian.Uint32(hdr[8:12])
	var blob bytes.Buffer
	for i := uint32(0); i < count; i++ {
		var lenBuf [4]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return fmt.Errorf("central: reading record %d length: %w", i, err)
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > 1<<28 {
			return fmt.Errorf("central: record %d implausibly large (%d bytes)", i, n)
		}
		// Copy incrementally rather than allocating n bytes up front: the
		// length prefix is attacker-controlled (a corrupt or hostile
		// snapshot), and a lying prefix must fail at the truncation
		// point, not after a 256 MiB allocation.
		blob.Reset()
		if _, err := io.CopyN(&blob, br, int64(n)); err != nil {
			return fmt.Errorf("central: reading record %d: %w", i, err)
		}
		rec, err := record.Unmarshal(blob.Bytes())
		if err != nil {
			return fmt.Errorf("central: decoding record %d: %w", i, err)
		}
		if err := s.Ingest(rec); err != nil && !errors.Is(err, ErrDuplicate) {
			return fmt.Errorf("central: restoring record %d: %w", i, err)
		}
	}
	return nil
}

// loadSegment copy-ingests every record of a checkpoint segment: all
// CRCs are verified and the bitmaps are heap copies, so the source
// buffer is free once this returns.
func (s *Server) loadSegment(br *bufio.Reader) error {
	data, err := io.ReadAll(br)
	if err != nil {
		return fmt.Errorf("central: reading segment: %w", err)
	}
	return store.ParseSegmentRecords(data, func(rec *record.Record) error {
		if err := s.Ingest(rec); err != nil && !errors.Is(err, ErrDuplicate) {
			return fmt.Errorf("central: restoring segment record loc=%d period=%d: %w", rec.Location, rec.Period, err)
		}
		return nil
	})
}
