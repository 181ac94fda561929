// Package router implements the cluster-aware client: the same call
// surface as a single transport.Client, routed across a cluster.
//
// Uploads go to the leader of the record's location partition, grouped
// per leader and retried through ring refreshes: a not-leader
// rejection, a leaderless partition (failover in progress), or a dead
// connection requeues the records instead of failing the batch, so a
// paced ingest stream survives a node kill and the subsequent
// `ptmcluster failover` without losing records.
//
// Queries scatter to the partition's replicas, leader first. Point and
// volume estimates are served by whichever replica answers — replicas
// converge to identical store contents, so the answers are
// bit-identical. Point-to-point estimates are partition-local when one
// node leads both locations. Otherwise each location's partition
// returns its first-level AND join E* over the queried periods, and the
// router finishes Eq. 21's second level with
// core.EstimatePointToPointFromJoins — the tail the server's estimator
// ends in, over the same joins, producing the same bits.
package router

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ptm/internal/bitmap"
	"ptm/internal/cluster"
	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
)

const (
	// maxUploadAttempts bounds the requeue loop; with the capped backoff
	// below it rides out several seconds of failover window.
	maxUploadAttempts = 12
	// backoffStep/backoffCap shape the deterministic retry backoff.
	backoffStep = 150 * time.Millisecond
	backoffCap  = time.Second
)

// Router is a cluster-aware client. Safe for concurrent use.
type Router struct {
	timeout time.Duration
	seeds   []string

	// mu guards the ring view and the per-member client table; it is
	// never held across a network call.
	mu      sync.Mutex
	ring    *cluster.Ring                //ptm:guardedby mu
	clients map[string]*transport.Client //ptm:guardedby mu (by member ID)
	s       int                          //ptm:guardedby mu (bitmap parameter, from node status)
	closed  bool                         //ptm:guardedby mu
}

// Dial bootstraps a router from seed addresses: the first reachable
// seed supplies the ring, and any Up member supplies the cluster's
// bitmap parameter s (needed for client-side point-to-point joins).
//
//ptm:exclusive Dial
func Dial(seeds []string, timeout time.Duration) (*Router, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("router: no seed addresses")
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	r := &Router{timeout: timeout, seeds: seeds, clients: make(map[string]*transport.Client)}
	if err := r.Refresh(); err != nil {
		return nil, err
	}
	if err := r.fetchS(); err != nil {
		//ptmlint:allow errdrop -- the fetch error is what the caller sees; close is best-effort cleanup
		_ = r.Close()
		return nil, err
	}
	return r, nil
}

// Ring returns a copy of the router's current ring view.
func (r *Router) Ring() *cluster.Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ring == nil {
		return nil
	}
	return r.ring.Clone()
}

// S returns the cluster's bitmap parameter.
func (r *Router) S() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s
}

// Close releases every member connection.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	clients := r.clients
	r.clients = make(map[string]*transport.Client)
	r.mu.Unlock()
	var first error
	for id, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = fmt.Errorf("router: closing %s: %w", id, err)
		}
	}
	return first
}

// Refresh re-fetches the ring: every serving member of the current
// view first (cached connections or fresh dials — the seed may be the
// node that just died), then the seeds. A fetched ring is adopted only
// if it is newer than the view in hand, so a stale source cannot roll
// the router backwards.
func (r *Router) Refresh() error {
	var firstErr error
	if ring := r.ringSnapshot(); ring != nil {
		for _, m := range ring.Members {
			if m.Addr == "" || m.State == cluster.StateLeft || m.State == cluster.StateDown {
				continue
			}
			var fetched *cluster.Ring
			err := r.callNode(m, func(c *transport.Client) error {
				var cerr error
				fetched, cerr = fetchRing(c)
				return cerr
			})
			if err == nil {
				r.adopt(fetched)
				return nil
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, addr := range r.seeds {
		c, err := transport.Dial(addr, r.timeout)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ring, err := fetchRing(c)
		//ptmlint:allow errdrop -- throwaway bootstrap connection; the ring fetch outcome is what matters
		_ = c.Close()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.adopt(ring)
		return nil
	}
	return fmt.Errorf("router: no reachable ring source: %w", firstErr)
}

func fetchRing(c *transport.Client) (*cluster.Ring, error) {
	resp, err := c.Call(transport.MsgRingGet, nil, transport.MsgRing)
	if err != nil {
		return nil, err
	}
	body, err := cluster.DecodeResponse(resp)
	if err != nil {
		return nil, err
	}
	return cluster.DecodeRing(body)
}

// adopt installs a fetched ring if newer, pruning clients of members
// that left.
func (r *Router) adopt(ring *cluster.Ring) {
	r.mu.Lock()
	if r.ring != nil && ring.Epoch <= r.ring.Epoch {
		r.mu.Unlock()
		return
	}
	r.ring = ring
	var stale []*transport.Client
	for id, c := range r.clients {
		m, ok := ring.Member(id)
		if !ok || m.State == cluster.StateLeft {
			stale = append(stale, c)
			delete(r.clients, id)
		}
	}
	r.mu.Unlock()
	for _, c := range stale {
		//ptmlint:allow errdrop -- best-effort teardown of a departed member's connection
		_ = c.Close()
	}
}

// fetchS learns the bitmap parameter from any Up member's status.
func (r *Router) fetchS() error {
	ring := r.ringSnapshot()
	var firstErr error
	for _, m := range ring.Members {
		if m.State != cluster.StateUp {
			continue
		}
		var st cluster.Status
		err := r.callNode(m, func(c *transport.Client) error {
			resp, err := c.Call(transport.MsgStatus, nil, transport.MsgStatusResp)
			if err != nil {
				return err
			}
			body, err := cluster.DecodeResponse(resp)
			if err != nil {
				return err
			}
			st, err = cluster.DecodeStatus(body)
			return err
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if st.S <= 0 {
			return fmt.Errorf("router: member %s reports s=%d", m.ID, st.S)
		}
		r.mu.Lock()
		r.s = st.S
		r.mu.Unlock()
		return nil
	}
	return fmt.Errorf("router: no member answered a status probe: %w", firstErr)
}

func (r *Router) ringSnapshot() *cluster.Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// client returns (dialing on demand) the member's connection.
func (r *Router) client(m cluster.Member) (*transport.Client, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("router: closed")
	}
	c := r.clients[m.ID]
	r.mu.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := transport.Dial(m.Addr, r.timeout)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if existing := r.clients[m.ID]; existing != nil {
		r.mu.Unlock()
		//ptmlint:allow errdrop -- lost the insert race; the duplicate dial is discarded
		_ = c.Close()
		return existing, nil
	}
	r.clients[m.ID] = c
	r.mu.Unlock()
	return c, nil
}

// callNode runs fn against the member, retrying once through Redial on
// a transport failure (the member may have restarted since last use).
func (r *Router) callNode(m cluster.Member, fn func(*transport.Client) error) error {
	c, err := r.client(m)
	if err != nil {
		return err
	}
	err = fn(c)
	if err != nil && !transport.IsRemote(err) {
		if rerr := c.Redial(); rerr == nil {
			err = fn(c)
		}
	}
	return err
}

// Upload sends one record to its partition leader.
func (r *Router) Upload(rec *record.Record) error {
	n, err := r.UploadBatch([]*record.Record{rec})
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("router: upload acked %d records, want 1", n)
	}
	return nil
}

// UploadBatch routes records to their partition leaders and returns how
// many are durably stored cluster-side. Records whose partition is
// momentarily unroutable (leader change, failover in progress, dead
// connection) are requeued across ring refreshes with a deterministic
// capped backoff. A record the cluster already holds counts as acked —
// retries after a partial failure legitimately re-send records the
// first attempt stored, and immutable deduplicated records make the
// duplicate ack equivalent to the original. Every acked record was
// accepted or reported as a duplicate on its own account: a duplicate
// that hides other failures in its batch is resolved record by record.
func (r *Router) UploadBatch(recs []*record.Record) (int, error) {
	accepted := 0
	remaining := recs
	var lastErr error
	for attempt := 0; attempt < maxUploadAttempts && len(remaining) > 0; attempt++ {
		if attempt > 0 {
			backoff := time.Duration(attempt) * backoffStep
			if backoff > backoffCap {
				backoff = backoffCap
			}
			time.Sleep(backoff)
			if err := r.Refresh(); err != nil {
				lastErr = err
				continue
			}
		}
		ring := r.ringSnapshot()
		groups := make(map[string][]*record.Record)
		leaders := make(map[string]cluster.Member)
		var retry []*record.Record
		for _, rec := range remaining {
			lead, err := ring.Leader(rec.Location)
			if err != nil {
				// Leaderless partition: hold the records for the
				// failover to complete.
				retry = append(retry, rec)
				lastErr = err
				continue
			}
			groups[lead.ID] = append(groups[lead.ID], rec)
			leaders[lead.ID] = lead
		}
		// deliver sends group to lead and sorts the outcome: acked records
		// count, unroutable ones wait for the next ring refresh, and any
		// other store failure ends the upload.
		var deliver func(lead cluster.Member, group []*record.Record) error
		deliver = func(lead cluster.Member, group []*record.Record) error {
			var n int
			err := r.callNode(lead, func(c *transport.Client) error {
				var cerr error
				n, cerr = c.UploadBatch(group)
				return cerr
			})
			switch {
			case err == nil:
				accepted += n
			case cluster.IsNotLeader(err), cluster.IsLeaderless(err):
				retry = append(retry, group...)
				lastErr = err
			case isDuplicate(err) && n == len(group)-1:
				// The duplicate was the only failure: the whole group is
				// stored (or was stored by the partial attempt this retry
				// repeats).
				accepted += len(group)
			case isDuplicate(err):
				// The server names only its first failure, so the records
				// behind the duplicate may have failed otherwise (a leader
				// change, say). Re-send them one at a time for a verdict
				// each.
				for _, rec := range group {
					if err := deliver(lead, []*record.Record{rec}); err != nil {
						return err
					}
				}
			case transport.IsRemote(err):
				return fmt.Errorf("router: upload to %s: %w", lead.ID, err)
			default:
				retry = append(retry, group...)
				lastErr = err
			}
			return nil
		}
		for id, group := range groups {
			if err := deliver(leaders[id], group); err != nil {
				return accepted, err
			}
		}
		remaining = retry
	}
	if len(remaining) > 0 {
		return accepted, fmt.Errorf("router: %d records unacked after %d attempts: %w",
			len(remaining), maxUploadAttempts, lastErr)
	}
	return accepted, nil
}

// isDuplicate matches the store's duplicate sentinel through transport
// wrapping.
func isDuplicate(err error) bool {
	return err != nil && strings.Contains(err.Error(), "already stored")
}

// queryCandidates orders the replicas to ask for loc: leader first,
// then the other Up members of the replica set.
func (r *Router) queryCandidates(ring *cluster.Ring, loc vhash.LocationID) ([]cluster.Member, error) {
	set := ring.ReplicaSet(loc)
	var cands []cluster.Member
	if lead, err := ring.Leader(loc); err == nil {
		cands = append(cands, lead)
	}
	for _, m := range set {
		if m.State != cluster.StateUp {
			continue
		}
		dup := false
		for _, c := range cands {
			if c.ID == m.ID {
				dup = true
			}
		}
		if !dup {
			cands = append(cands, m)
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("router: location %d has no queryable replica", loc)
	}
	return cands, nil
}

// queryReplicas tries fn on each candidate replica in order. A remote
// (application-level) answer is definitive — replicas converge, so a
// not-found from a live replica is a real not-found; transport failures
// fall through to the next replica.
func (r *Router) queryReplicas(loc vhash.LocationID, fn func(*transport.Client) error) error {
	ring := r.ringSnapshot()
	cands, err := r.queryCandidates(ring, loc)
	if err != nil {
		return err
	}
	var firstErr error
	for _, m := range cands {
		err := r.callNode(m, fn)
		if err == nil || transport.IsRemote(err) {
			return err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return fmt.Errorf("router: no replica of location %d reachable: %w", loc, firstErr)
}

// QueryVolume estimates one period's volume (Eq. 1).
func (r *Router) QueryVolume(loc vhash.LocationID, p record.PeriodID) (float64, error) {
	var v float64
	err := r.queryReplicas(loc, func(c *transport.Client) error {
		var cerr error
		v, cerr = c.QueryVolume(loc, p)
		return cerr
	})
	return v, err
}

// QueryPointPersistent estimates point persistent traffic (Eq. 12).
func (r *Router) QueryPointPersistent(loc vhash.LocationID, periods []record.PeriodID) (float64, error) {
	var v float64
	err := r.queryReplicas(loc, func(c *transport.Client) error {
		var cerr error
		v, cerr = c.QueryPointPersistent(loc, periods)
		return cerr
	})
	return v, err
}

// QueryPointToPointPersistent estimates point-to-point persistent
// traffic (Eq. 21). When one node leads both locations the whole
// estimate runs server-side. Otherwise the router asks both partitions
// at once for their first-level joins E* and E′* over the periods and
// runs the second level itself — the same joins and the same Eq. 21
// tail as the single-node server, so the same bits (proven by
// TestRouterP2PBitIdentity).
func (r *Router) QueryPointToPointPersistent(locA, locB vhash.LocationID, periods []record.PeriodID) (float64, error) {
	ring := r.ringSnapshot()
	leadA, errA := ring.Leader(locA)
	leadB, errB := ring.Leader(locB)
	if errA == nil && errB == nil && leadA.ID == leadB.ID {
		var v float64
		err := r.callNode(leadA, func(c *transport.Client) error {
			var cerr error
			v, cerr = c.QueryPointToPointPersistent(locA, locB, periods)
			return cerr
		})
		if err == nil || transport.IsRemote(err) {
			return v, err
		}
		// Transport failure: fall through to the per-location joins,
		// which can use any replica.
	}
	type joinResult struct {
		e   *bitmap.Bitmap
		err error
	}
	joinedB := make(chan joinResult, 1)
	go func() {
		e, err := r.fetchJoin(locB, periods)
		joinedB <- joinResult{e, err}
	}()
	eA, err := r.fetchJoin(locA, periods)
	b := <-joinedB
	if err != nil {
		return 0, err
	}
	if b.err != nil {
		return 0, b.err
	}
	// The set-bit counts are recomputed here rather than carried on the
	// wire, so the estimate depends on the checksummed bitmaps alone.
	res, err := core.EstimatePointToPointFromJoins(eA, eA.Ones(), b.e, b.e.Ones(), len(periods), r.S())
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// fetchJoin asks a replica of loc, leader first, for the AND join E* of
// loc's records over periods. Every period must be stored there, as the
// server's Collect requires.
func (r *Router) fetchJoin(loc vhash.LocationID, periods []record.PeriodID) (*bitmap.Bitmap, error) {
	req, err := cluster.EncodeJoinRequest(loc, periods)
	if err != nil {
		return nil, err
	}
	var e *bitmap.Bitmap
	err = r.queryReplicas(loc, func(c *transport.Client) error {
		resp, err := c.Call(transport.MsgFetchRecords, req, transport.MsgRecords)
		if err != nil {
			return err
		}
		e, err = cluster.DecodeJoinResponse(resp)
		return err
	})
	return e, err
}

// ListLocations unions the locations of every Up member.
func (r *Router) ListLocations() ([]vhash.LocationID, error) {
	ring := r.ringSnapshot()
	seen := make(map[vhash.LocationID]bool)
	asked := 0
	for _, m := range ring.Members {
		if m.State != cluster.StateUp {
			continue
		}
		var locs []vhash.LocationID
		err := r.callNode(m, func(c *transport.Client) error {
			var cerr error
			locs, cerr = c.ListLocations()
			return cerr
		})
		if err != nil {
			return nil, fmt.Errorf("router: listing locations on %s: %w", m.ID, err)
		}
		asked++
		for _, loc := range locs {
			seen[loc] = true
		}
	}
	if asked == 0 {
		return nil, fmt.Errorf("router: no Up member to list locations from")
	}
	out := make([]vhash.LocationID, 0, len(seen))
	for loc := range seen {
		out = append(out, loc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ListPeriods lists the stored periods at one location.
func (r *Router) ListPeriods(loc vhash.LocationID) ([]record.PeriodID, error) {
	var periods []record.PeriodID
	err := r.queryReplicas(loc, func(c *transport.Client) error {
		var cerr error
		periods, cerr = c.ListPeriods(loc)
		return cerr
	})
	return periods, err
}
