package router

// End-to-end router tests over real loopback nodes: upload routing,
// scatter-gather queries, cross-partition point-to-point bit-identity
// against a single-node reference, and retry behavior across leadership
// changes and failover.

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"ptm/internal/central"
	"ptm/internal/cluster"
	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

const testS = 3

type testNode struct {
	node *cluster.Node
	srv  *transport.Server
	addr string
}

func startNode(t testing.TB, id string) *testNode {
	t.Helper()
	dir := t.TempDir()
	d, err := central.OpenDurable(dir, testS, central.DefaultShards,
		wal.Options{Sync: wal.SyncAlways, SegmentSize: 1 << 14}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cluster.NewNode(d, cluster.Config{
		ID:          id,
		RingPath:    filepath.Join(dir, "ring.json"),
		DialTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.NewServer(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	tn := &testNode{node: n, srv: srv, addr: ln.Addr().String()}
	t.Cleanup(func() {
		_ = tn.node.Close()
		_ = tn.srv.Close()
		_ = tn.node.Durable.Close()
	})
	return tn
}

// pushRingWire pushes a ring over the wire, as ptmcluster does.
func pushRingWire(t testing.TB, r *cluster.Ring, nodes ...*testNode) {
	t.Helper()
	enc, err := cluster.EncodeRing(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range nodes {
		c, err := transport.Dial(tn.addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Call(transport.MsgRingSet, enc, transport.MsgRing)
		if err == nil {
			_, err = cluster.DecodeResponse(resp)
		}
		if cerr := c.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatalf("pushing ring epoch %d to %s: %v", r.Epoch, tn.node.ID(), err)
		}
	}
}

func ringOf(epoch uint64, replicas int, nodes ...*testNode) *cluster.Ring {
	r := &cluster.Ring{Epoch: epoch, Replicas: replicas, VNodes: cluster.DefaultVNodes}
	for _, tn := range nodes {
		r.Members = append(r.Members, cluster.Member{ID: tn.node.ID(), Addr: tn.addr, State: cluster.StateUp})
	}
	r.SortMembers()
	return r
}

func testRecord(t testing.TB, loc, period, m int) *record.Record {
	t.Helper()
	rec, err := record.New(vhash.LocationID(loc), record.PeriodID(period), m)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(loc)*2654435761 + uint64(period)*40503
	for k := 0; k < 6+loc%4+period%3; k++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		rec.Bitmap.Set(seed % uint64(m))
	}
	return rec
}

func shipAll(t testing.TB, rounds int, nodes ...*testNode) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		for _, tn := range nodes {
			if err := tn.node.ShipNow(); err != nil {
				t.Fatalf("round %d: node %s: %v", i, tn.node.ID(), err)
			}
		}
	}
}

// clusterOf starts n nodes with an all-Up R=2 ring and a router dialed
// at the first node only (seed discovery finds the rest).
func clusterOf(t testing.TB, n int) ([]*testNode, *Router, *central.Server) {
	t.Helper()
	var nodes []*testNode
	for i := 0; i < n; i++ {
		nodes = append(nodes, startNode(t, string(rune('a'+i))))
	}
	pushRingWire(t, ringOf(1, 2, nodes...), nodes...)
	rt, err := Dial([]string{nodes[0].addr}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	ref, err := central.NewServer(testS)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, rt, ref
}

func TestRouterUploadAndQueryDifferential(t *testing.T) {
	nodes, rt, ref := clusterOf(t, 3)
	const m = 64
	locs := []int{1, 2, 3, 4, 5, 6}
	periods := []record.PeriodID{1, 2, 3, 4, 5}

	var batch []*record.Record
	for _, loc := range locs {
		for _, p := range periods {
			if err := ref.Ingest(testRecord(t, loc, int(p), m)); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, testRecord(t, loc, int(p), m))
		}
	}
	n, err := rt.UploadBatch(batch)
	if err != nil {
		t.Fatalf("UploadBatch: %v", err)
	}
	if n != len(batch) {
		t.Fatalf("UploadBatch acked %d/%d", n, len(batch))
	}
	shipAll(t, 3, nodes...)

	gotLocs, err := rt.ListLocations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotLocs) != len(locs) {
		t.Fatalf("ListLocations = %v, want %d locations", gotLocs, len(locs))
	}
	for _, loc := range locs {
		ps, err := rt.ListPeriods(vhash.LocationID(loc))
		if err != nil || len(ps) != len(periods) {
			t.Fatalf("ListPeriods(%d) = %v, %v", loc, ps, err)
		}
		for _, p := range periods {
			want, err := ref.Volume(vhash.LocationID(loc), p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rt.QueryVolume(vhash.LocationID(loc), p)
			if err != nil {
				t.Fatalf("QueryVolume(%d,%d): %v", loc, p, err)
			}
			if got != want {
				t.Fatalf("QueryVolume(%d,%d) = %v, want %v", loc, p, got, want)
			}
		}
		wantPt, err := ref.PointPersistent(vhash.LocationID(loc), periods)
		if err != nil {
			t.Fatal(err)
		}
		gotPt, err := rt.QueryPointPersistent(vhash.LocationID(loc), periods)
		if err != nil {
			t.Fatalf("QueryPointPersistent(%d): %v", loc, err)
		}
		if gotPt != wantPt.Estimate {
			t.Fatalf("QueryPointPersistent(%d) = %v, want %v", loc, gotPt, wantPt.Estimate)
		}
	}

	// A duplicate re-upload is acked (the records are durable).
	n, err = rt.UploadBatch(batch[:4])
	if err != nil || n != 4 {
		t.Fatalf("duplicate re-upload = %d, %v; want 4 acked", n, err)
	}
}

// p2pRecord encodes, as the paper's vehicles do, 96 vehicles that pass
// every location in every period plus a location-dependent number of
// transients, so each location's AND join keeps a nonzero, distinct
// number of set bits and Eq. 21 has a common-vehicle signal to find.
func p2pRecord(t testing.TB, loc, period, m int) *record.Record {
	t.Helper()
	rec, err := record.New(vhash.LocationID(loc), record.PeriodID(period), m)
	if err != nil {
		t.Fatal(err)
	}
	set := func(id uint64) {
		v, err := vhash.NewSeededIdentity(vhash.VehicleID(id), testS, 7)
		if err != nil {
			t.Fatal(err)
		}
		rec.Bitmap.Set(v.Index(vhash.LocationID(loc), m))
	}
	for id := uint64(1); id <= 96; id++ {
		set(id)
	}
	for k := 0; k < 16+4*(loc%5); k++ {
		set(uint64(1000 + 100*loc + 10*period + k))
	}
	return rec
}

func TestRouterP2PBitIdentity(t *testing.T) {
	nodes, rt, ref := clusterOf(t, 3)
	locs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	periods := []record.PeriodID{1, 2, 3, 4}
	// Odd locations hold 1024-bit records and even ones 512-bit, so pairs
	// asked in both orders run the m <= m′ swap from either side.
	size := func(loc int) int { return 512 << (loc % 2) }
	var batch []*record.Record
	for _, loc := range locs {
		for _, p := range periods {
			if err := ref.Ingest(p2pRecord(t, loc, int(p), size(loc))); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, p2pRecord(t, loc, int(p), size(loc)))
		}
	}
	if _, err := rt.UploadBatch(batch); err != nil {
		t.Fatal(err)
	}
	shipAll(t, 3, nodes...)

	check := func(la, lb vhash.LocationID) {
		t.Helper()
		want, err := ref.PointToPointPersistent(la, lb, periods)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.QueryPointToPointPersistent(la, lb, periods)
		if err != nil {
			t.Fatalf("p2p(%d,%d): %v", la, lb, err)
		}
		if got != want.Estimate {
			t.Fatalf("p2p(%d,%d) = %v, want %v", la, lb, got, want.Estimate)
		}
		if want.Raw <= 0 {
			t.Fatalf("p2p(%d,%d): raw estimate %v, want a positive signal", la, lb, want.Raw)
		}
	}
	ring := rt.Ring()
	leader := func(loc int) string {
		t.Helper()
		m, err := ring.Leader(vhash.LocationID(loc))
		if err != nil {
			t.Fatal(err)
		}
		return m.ID
	}
	sameLeader, crossLeader, crossUnequal := 0, 0, 0
	for i := 0; i < len(locs); i++ {
		for j := i + 1; j < len(locs); j++ {
			if leader(locs[i]) == leader(locs[j]) {
				sameLeader++
			} else {
				crossLeader++
				if size(locs[i]) != size(locs[j]) {
					crossUnequal++
				}
			}
			check(vhash.LocationID(locs[i]), vhash.LocationID(locs[j]))
			check(vhash.LocationID(locs[j]), vhash.LocationID(locs[i]))
		}
	}
	// The test is only meaningful if both code paths ran.
	if sameLeader == 0 || crossLeader == 0 || crossUnequal == 0 {
		t.Fatalf("degenerate leader split: same=%d cross=%d cross with unequal sizes=%d",
			sameLeader, crossLeader, crossUnequal)
	}

	// A missing period must fail, mirroring the server's Collect.
	if _, err := rt.QueryPointToPointPersistent(1, 2, []record.PeriodID{1, 99}); err == nil {
		t.Fatal("p2p over a missing period succeeded")
	}

	// Wire bytes: a location's join answer is one bitmap encoding of its
	// record size, the same whether it stores 4 periods or 16 and
	// whether 2 or 16 of them are joined.
	more := make([]record.PeriodID, 16)
	for i := range more {
		more[i] = record.PeriodID(i + 1)
	}
	for _, p := range more[len(periods):] {
		if _, err := rt.UploadBatch([]*record.Record{p2pRecord(t, 2, int(p), size(2))}); err != nil {
			t.Fatal(err)
		}
	}
	shipAll(t, 3, nodes...)
	enc, err := p2pRecord(t, 2, 1, size(2)).Bitmap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		loc     vhash.LocationID
		periods []record.PeriodID
	}{{4, periods}, {2, periods}, {2, more[:2]}, {2, more}} {
		var resp []byte
		err := rt.queryReplicas(q.loc, func(c *transport.Client) error {
			req, err := cluster.EncodeJoinRequest(q.loc, q.periods)
			if err != nil {
				return err
			}
			resp, err = c.Call(transport.MsgFetchRecords, req, transport.MsgRecords)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp) != 1+len(enc) {
			t.Fatalf("join of loc %d over %d periods: %d response bytes, want %d",
				q.loc, len(q.periods), len(resp), 1+len(enc))
		}
	}

	// Leader down: every pair involving the victim's partitions is served
	// by the followers' joins (and, for a pair the victim led alone, by
	// the join path after the colocated call fails).
	victim := nodes[0]
	if err := victim.srv.Close(); err != nil {
		t.Fatal(err)
	}
	served := 0
	for i := 0; i < len(locs); i++ {
		for j := i + 1; j < len(locs); j++ {
			if leader(locs[i]) != victim.node.ID() && leader(locs[j]) != victim.node.ID() {
				continue
			}
			check(vhash.LocationID(locs[i]), vhash.LocationID(locs[j]))
			served++
		}
	}
	if served == 0 {
		t.Fatalf("victim %s leads no tested location", victim.node.ID())
	}
}

func TestRouterRefreshOnLeadershipChange(t *testing.T) {
	nodes, rt, _ := clusterOf(t, 3)
	const m = 64

	// Find a location led by nodes[0], then drain nodes[0] behind the
	// router's back. The router's first attempt hits the old leader,
	// gets the not-leader rejection, refreshes, and lands the record.
	ring := rt.Ring()
	var loc int
	for l := 1; l < 256; l++ {
		lead, err := ring.Leader(vhash.LocationID(l))
		if err != nil {
			t.Fatal(err)
		}
		if lead.ID == nodes[0].node.ID() {
			loc = l
			break
		}
	}
	if loc == 0 {
		t.Fatal("node a leads nothing in 255 locations")
	}
	drained := ring.Clone()
	drained.Epoch = 2
	for i := range drained.Members {
		if drained.Members[i].ID == nodes[0].node.ID() {
			drained.Members[i].State = cluster.StateDraining
		}
	}
	pushRingWire(t, drained, nodes...)

	if err := rt.Upload(testRecord(t, loc, 1, m)); err != nil {
		t.Fatalf("upload across leadership change: %v", err)
	}
	if rt.Ring().Epoch != 2 {
		t.Fatalf("router did not adopt the refreshed ring (epoch %d)", rt.Ring().Epoch)
	}
	if _, err := rt.QueryVolume(vhash.LocationID(loc), 1); err != nil {
		t.Fatalf("query after refresh: %v", err)
	}
}

// TestRouterUploadDuplicateHidesNotLeader: the server reports only the
// first per-record failure of a batch. A batch whose first record is a
// duplicate and whose second is rejected by a leader change must not be
// acked whole; the rejected record has to reach its new leader.
func TestRouterUploadDuplicateHidesNotLeader(t *testing.T) {
	nodes, rt, _ := clusterOf(t, 3)
	const m = 64
	old := rt.Ring()
	moved := old.Clone()
	moved.Epoch = 2
	moved.VNodes = old.VNodes / 2
	leader := func(r *cluster.Ring, loc int) string {
		t.Helper()
		lead, err := r.Leader(vhash.LocationID(loc))
		if err != nil {
			t.Fatal(err)
		}
		return lead.ID
	}
	// A keeps its leader across the epochs; B shares that leader at
	// epoch 1 and moves off it at epoch 2.
	stays := map[string]int{}
	leaves := map[string]int{}
	locA, locB := 0, 0
	for l := 1; l < 1024 && locA == 0; l++ {
		was, now := leader(old, l), leader(moved, l)
		if was == now && stays[was] == 0 {
			stays[was] = l
		} else if was != now && leaves[was] == 0 {
			leaves[was] = l
		}
		if stays[was] != 0 && leaves[was] != 0 {
			locA, locB = stays[was], leaves[was]
		}
	}
	if locA == 0 {
		t.Fatal("no location pair whose shared leader keeps one and loses the other")
	}

	if err := rt.Upload(testRecord(t, locA, 1, m)); err != nil {
		t.Fatal(err)
	}
	// The nodes adopt epoch 2 behind the router's back, so the router
	// still sends A and B together to A's leader.
	pushRingWire(t, moved, nodes...)
	n, err := rt.UploadBatch([]*record.Record{testRecord(t, locA, 1, m), testRecord(t, locB, 1, m)})
	if err != nil || n != 2 {
		t.Fatalf("UploadBatch = %d, %v; want 2 acked", n, err)
	}
	for _, tn := range nodes {
		if tn.node.ID() == leader(moved, locB) {
			if ps := tn.node.Periods(vhash.LocationID(locB)); len(ps) != 1 {
				t.Fatalf("B's leader %s holds periods %v of location %d, want [1]", tn.node.ID(), ps, locB)
			}
			return
		}
	}
	t.Fatalf("B's leader %s is not a cluster node", leader(moved, locB))
}

func TestRouterUploadSurvivesFailover(t *testing.T) {
	nodes, rt, _ := clusterOf(t, 3)
	const m = 64
	ring := rt.Ring()

	victim := nodes[0]
	var loc int
	for l := 1; l < 256; l++ {
		lead, err := ring.Leader(vhash.LocationID(l))
		if err != nil {
			t.Fatal(err)
		}
		if lead.ID == victim.node.ID() {
			loc = l
			break
		}
	}
	if loc == 0 {
		t.Fatal("victim leads nothing")
	}
	if err := rt.Upload(testRecord(t, loc, 1, m)); err != nil {
		t.Fatal(err)
	}
	shipAll(t, 2, nodes...)

	// Kill the leader, then complete the failover while the router is
	// already retrying an upload to the dead node.
	if err := victim.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := victim.node.Close(); err != nil {
		t.Fatal(err)
	}
	survivors := nodes[1:]

	done := make(chan error, 1)
	go func() { done <- rt.Upload(testRecord(t, loc, 2, m)) }()

	time.Sleep(250 * time.Millisecond) // let the first attempts fail
	down := ring.Clone()
	down.Epoch = 2
	for i := range down.Members {
		if down.Members[i].ID == victim.node.ID() {
			down.Members[i].State = cluster.StateDown
		}
	}
	// Promote the survivor with the highest applied watermark.
	best := survivors[0]
	for _, tn := range survivors[1:] {
		if tn.node.StatusSnapshot().Applied[victim.node.ID()] > best.node.StatusSnapshot().Applied[victim.node.ID()] {
			best = tn
		}
	}
	down.Promoted = map[string]string{victim.node.ID(): best.node.ID()}
	pushRingWire(t, down, survivors...)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("upload across failover: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("upload hung across failover")
	}

	// Both periods are queryable from the survivors; period 1 was
	// replicated before the kill, period 2 landed on the new leader.
	for _, p := range []record.PeriodID{1, 2} {
		if _, err := rt.QueryVolume(vhash.LocationID(loc), p); err != nil {
			t.Fatalf("volume(%d,%d) after failover: %v", loc, p, err)
		}
	}
}
