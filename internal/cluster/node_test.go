package cluster

// In-process cluster tests: N nodes with real WALs and real transport
// servers on loopback, driven deterministically through ShipNow. The
// core property under test is the ISSUE's acceptance bar — estimator
// output from cluster replicas is bit-identical to a single-node store
// holding the same records — plus the failover and join/drain flows.

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ptm/internal/bitmap"
	"ptm/internal/central"
	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

const testS = 3

// testNode bundles one in-process cluster member.
type testNode struct {
	node *Node
	srv  *transport.Server
	addr string
	dir  string
}

// startNode opens a durable store in its own temp dir, wraps it in a
// Node (manual shipping only), and serves it on loopback.
func startNode(t *testing.T, id string) *testNode {
	t.Helper()
	dir := t.TempDir()
	d, err := central.OpenDurable(dir, testS, central.DefaultShards,
		wal.Options{Sync: wal.SyncAlways, SegmentSize: 1 << 14}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(d, Config{
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
	tn := &testNode{node: n, srv: srv, addr: ln.Addr().String(), dir: dir}
	t.Cleanup(func() {
		_ = tn.node.Close()
		_ = tn.srv.Close()
		_ = tn.node.Durable.Close()
	})
	return tn
}

// pushRing installs a ring on the given nodes through the extension
// frame path (the same path ptmcluster uses).
func pushRing(t *testing.T, r *Ring, nodes ...*testNode) {
	t.Helper()
	enc, err := EncodeRing(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range nodes {
		_, resp, handled := tn.node.HandleFrame(transport.MsgRingSet, enc)
		if !handled {
			t.Fatalf("node %s did not handle MsgRingSet", tn.node.ID())
		}
		if _, err := splitPayload(resp); err != nil {
			t.Fatalf("node %s rejected ring epoch %d: %v", tn.node.ID(), r.Epoch, err)
		}
	}
}

// ringOf builds a ring over the started nodes, all Up.
func ringOf(epoch uint64, replicas int, nodes ...*testNode) *Ring {
	r := &Ring{Epoch: epoch, Replicas: replicas, VNodes: DefaultVNodes}
	for _, tn := range nodes {
		r.Members = append(r.Members, Member{ID: tn.node.ID(), Addr: tn.addr, State: StateUp})
	}
	r.SortMembers()
	return r
}

// testRecord builds a deterministic record: the bitmap bits are a pure
// function of (loc, period), so the reference store and the cluster see
// byte-identical records.
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

// shipAll runs rounds replication rounds on every node.
func shipAll(t *testing.T, rounds int, nodes ...*testNode) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		for _, tn := range nodes {
			if err := tn.node.ShipNow(); err != nil {
				t.Fatalf("round %d: node %s: %v", i, tn.node.ID(), err)
			}
		}
	}
}

// leaderOf resolves loc's leader among the nodes.
func leaderOf(t *testing.T, r *Ring, nodes map[string]*testNode, loc int) *testNode {
	t.Helper()
	m, err := r.Leader(vhash.LocationID(loc))
	if err != nil {
		t.Fatalf("leader(%d): %v", loc, err)
	}
	tn, ok := nodes[m.ID]
	if !ok {
		t.Fatalf("leader(%d) = %s, not a live node", loc, m.ID)
	}
	return tn
}

func TestClusterReplicationDifferential(t *testing.T) {
	a, b, c := startNode(t, "a"), startNode(t, "b"), startNode(t, "c")
	nodes := map[string]*testNode{"a": a, "b": b, "c": c}
	r := ringOf(1, 2, a, b, c)
	pushRing(t, r, a, b, c)

	ref, err := central.NewServer(testS)
	if err != nil {
		t.Fatal(err)
	}
	const m = 64
	locs := []int{1, 2, 3, 4, 5, 6}
	periods := []record.PeriodID{1, 2, 3, 4, 5, 6, 7, 8}
	for _, loc := range locs {
		for _, p := range periods {
			if err := ref.Ingest(testRecord(t, loc, int(p), m)); err != nil {
				t.Fatal(err)
			}
			if err := leaderOf(t, r, nodes, loc).node.Ingest(testRecord(t, loc, int(p), m)); err != nil {
				t.Fatalf("ingest loc=%d p=%d: %v", loc, p, err)
			}
		}
	}

	// A follower must reject a direct upload with the leader hint.
	for _, loc := range locs {
		lead := leaderOf(t, r, nodes, loc)
		for id, tn := range nodes {
			if id == lead.node.ID() {
				continue
			}
			err := tn.node.Ingest(testRecord(t, loc, 99, m))
			if !IsNotLeader(err) {
				t.Fatalf("follower %s accepted loc %d upload (err=%v)", id, loc, err)
			}
		}
		break // one location suffices
	}

	// Two hops bound convergence; run three rounds for slack.
	shipAll(t, 3, a, b, c)

	for _, loc := range locs {
		set := r.ReplicaSet(vhash.LocationID(loc))
		if len(set) != 2 {
			t.Fatalf("replica set for %d: %v", loc, set)
		}
		for _, mem := range set {
			tn := nodes[mem.ID]
			for _, p := range periods {
				want, err := ref.Volume(vhash.LocationID(loc), p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tn.node.Volume(vhash.LocationID(loc), p)
				if err != nil {
					t.Fatalf("replica %s volume(%d,%d): %v", mem.ID, loc, p, err)
				}
				if got != want {
					t.Fatalf("replica %s volume(%d,%d) = %v, want %v", mem.ID, loc, p, got, want)
				}
			}
			wantPt, err := ref.PointPersistent(vhash.LocationID(loc), periods)
			if err != nil {
				t.Fatal(err)
			}
			gotPt, err := tn.node.PointPersistent(vhash.LocationID(loc), periods)
			if err != nil {
				t.Fatalf("replica %s point(%d): %v", mem.ID, loc, err)
			}
			if !reflect.DeepEqual(gotPt, wantPt) {
				t.Fatalf("replica %s point(%d) = %+v, want %+v", mem.ID, loc, gotPt, wantPt)
			}
		}
	}

	// Point-to-point on any node holding both locations.
	for _, pair := range [][2]int{{1, 2}, {3, 5}} {
		la, lb := vhash.LocationID(pair[0]), vhash.LocationID(pair[1])
		want, err := ref.PointToPointPersistent(la, lb, periods)
		if err != nil {
			t.Fatal(err)
		}
		for id, tn := range nodes {
			holdsBoth := len(tn.node.Periods(la)) > 0 && len(tn.node.Periods(lb)) > 0
			if !holdsBoth {
				continue
			}
			got, err := tn.node.PointToPointPersistent(la, lb, periods)
			if err != nil {
				t.Fatalf("node %s p2p(%d,%d): %v", id, la, lb, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("node %s p2p(%d,%d) = %+v, want %+v", id, la, lb, got, want)
			}
		}
	}
}

func TestClusterFailoverAndReviveNoAckedLoss(t *testing.T) {
	a, b, c := startNode(t, "a"), startNode(t, "b"), startNode(t, "c")
	nodes := map[string]*testNode{"a": a, "b": b, "c": c}
	all := []*testNode{a, b, c}
	r := ringOf(1, 2, a, b, c)
	pushRing(t, r, all...)

	ref, err := central.NewServer(testS)
	if err != nil {
		t.Fatal(err)
	}
	const m = 64
	ingestBoth := func(r *Ring, loc, p int) {
		t.Helper()
		if err := ref.Ingest(testRecord(t, loc, p, m)); err != nil && !errors.Is(err, central.ErrDuplicate) {
			t.Fatal(err)
		}
		if err := leaderOf(t, r, nodes, loc).node.Ingest(testRecord(t, loc, p, m)); err != nil {
			t.Fatalf("ingest loc=%d p=%d: %v", loc, p, err)
		}
	}
	locs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for _, loc := range locs {
		for p := 1; p <= 4; p++ {
			ingestBoth(r, loc, p)
		}
	}
	shipAll(t, 3, all...)

	// Pick a victim that leads at least one location.
	var victim *testNode
	var victimLoc int
	for _, loc := range locs {
		lead := leaderOf(t, r, nodes, loc)
		if lead == a {
			victim, victimLoc = lead, loc
			break
		}
	}
	if victim == nil {
		t.Skip("node a leads no test location; hash placement changed")
	}

	// One more acked record on the victim that is NOT shipped before the
	// kill: it must survive via the victim's WAL after revive.
	unshipped := testRecord(t, victimLoc, 77, m)
	if err := ref.Ingest(testRecord(t, victimLoc, 77, m)); err != nil {
		t.Fatal(err)
	}
	if err := victim.node.Ingest(unshipped); err != nil {
		t.Fatal(err)
	}

	// Kill: stop serving and shipping. The durable store stays on disk.
	if err := victim.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := victim.node.Close(); err != nil {
		t.Fatal(err)
	}

	// The partition is leaderless until an explicit failover.
	down := r.Clone()
	down.Epoch = 2
	for i := range down.Members {
		if down.Members[i].ID == victim.node.ID() {
			down.Members[i].State = StateDown
		}
	}
	survivors := []*testNode{b, c}
	pushRing(t, down, survivors...)
	if _, err := down.Leader(vhash.LocationID(victimLoc)); err == nil {
		t.Fatal("down unpromoted leader still resolves")
	}
	if err := b.node.Ingest(testRecord(t, victimLoc, 78, m)); err == nil {
		t.Fatal("leaderless partition accepted an upload")
	}

	// Failover: promote the most-caught-up survivor (by applied
	// watermark for the victim, as ptmcluster does).
	best := survivors[0]
	for _, tn := range survivors[1:] {
		if tn.node.StatusSnapshot().Applied[victim.node.ID()] > best.node.StatusSnapshot().Applied[victim.node.ID()] {
			best = tn
		}
	}
	failed := down.Clone()
	failed.Epoch = 3
	failed.Promoted = map[string]string{victim.node.ID(): best.node.ID()}
	pushRing(t, failed, survivors...)

	// The partition serves again; ingest continues on the new leader.
	for p := 5; p <= 6; p++ {
		ingestBoth(failed, victimLoc, p)
	}
	shipAll(t, 3, survivors...)

	// Revive: restart the victim over the same WAL (kill -9 semantics:
	// reopen and recover), then push a ring returning it to Up.
	d2, err := central.OpenDurable(victim.dir, testS, central.DefaultShards,
		wal.Options{Sync: wal.SyncAlways, SegmentSize: 1 << 14}, 0)
	if err != nil {
		t.Fatalf("reopening victim WAL: %v", err)
	}
	n2, err := NewNode(d2, Config{
		ID:          victim.node.ID(),
		RingPath:    filepath.Join(victim.dir, "ring.json"),
		DialTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := transport.NewServer(n2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", victim.addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", victim.addr, err)
	}
	go func() { _ = srv2.Serve(ln2) }()
	revived := &testNode{node: n2, srv: srv2, addr: victim.addr, dir: victim.dir}
	t.Cleanup(func() {
		_ = revived.node.Close()
		_ = revived.srv.Close()
		_ = revived.node.Durable.Close()
	})
	nodes[revived.node.ID()] = revived

	up := failed.Clone()
	up.Epoch = 4
	up.Promoted = nil
	for i := range up.Members {
		if up.Members[i].ID == revived.node.ID() {
			up.Members[i].State = StateUp
		}
	}
	final := []*testNode{revived, b, c}
	pushRing(t, up, final...)
	shipAll(t, 3, final...)

	// Every replica of every location now matches the reference —
	// including period 77, which was acked only on the victim's WAL
	// before the kill.
	periods := func(loc int) []record.PeriodID { return ref.Periods(vhash.LocationID(loc)) }
	for _, loc := range locs {
		for _, mem := range up.ReplicaSet(vhash.LocationID(loc)) {
			tn := nodes[mem.ID]
			wantPt, err := ref.PointPersistent(vhash.LocationID(loc), periods(loc))
			if err != nil {
				t.Fatal(err)
			}
			gotPt, err := tn.node.PointPersistent(vhash.LocationID(loc), periods(loc))
			if err != nil {
				t.Fatalf("replica %s point(%d): %v", mem.ID, loc, err)
			}
			if !reflect.DeepEqual(gotPt, wantPt) {
				t.Fatalf("replica %s point(%d) diverged after failover+revive", mem.ID, loc)
			}
		}
	}
	for _, mem := range up.ReplicaSet(vhash.LocationID(victimLoc)) {
		tn := nodes[mem.ID]
		got, err := tn.node.Volume(vhash.LocationID(victimLoc), 77)
		if err != nil {
			t.Fatalf("replica %s lost the acked-but-unshipped record: %v", mem.ID, err)
		}
		want, err := ref.Volume(vhash.LocationID(victimLoc), 77)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("replica %s volume for revived record = %v, want %v", mem.ID, got, want)
		}
	}
}

func TestClusterJoinDrainPreservesEstimates(t *testing.T) {
	a, b, c := startNode(t, "a"), startNode(t, "b"), startNode(t, "c")
	nodes := map[string]*testNode{"a": a, "b": b, "c": c}
	r := ringOf(1, 2, a, b, c)
	pushRing(t, r, a, b, c)

	ref, err := central.NewServer(testS)
	if err != nil {
		t.Fatal(err)
	}
	const m = 64
	locs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	periods := []record.PeriodID{1, 2, 3, 4}
	for _, loc := range locs {
		for _, p := range periods {
			if err := ref.Ingest(testRecord(t, loc, int(p), m)); err != nil {
				t.Fatal(err)
			}
			if err := leaderOf(t, r, nodes, loc).node.Ingest(testRecord(t, loc, int(p), m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	shipAll(t, 3, a, b, c)

	// Join d: it owns positions immediately but leads nothing until Up.
	d := startNode(t, "d")
	nodes["d"] = d
	joined := r.Clone()
	joined.Epoch = 2
	joined.Members = append(joined.Members, Member{ID: "d", Addr: d.addr, State: StateJoining})
	joined.SortMembers()
	pushRing(t, joined, a, b, c, d)
	shipAll(t, 3, a, b, c, d)

	// Promote d, then drain a. Draining a owns nothing; its shipper
	// pushes its records up to the new leaders.
	up := joined.Clone()
	up.Epoch = 3
	for i := range up.Members {
		if up.Members[i].ID == "d" {
			up.Members[i].State = StateUp
		}
	}
	pushRing(t, up, a, b, c, d)
	drained := up.Clone()
	drained.Epoch = 4
	for i := range drained.Members {
		if drained.Members[i].ID == "a" {
			drained.Members[i].State = StateDraining
		}
	}
	pushRing(t, drained, a, b, c, d)
	shipAll(t, 3, a, b, c, d)

	for _, loc := range locs {
		set := drained.ReplicaSet(vhash.LocationID(loc))
		if len(set) != 2 {
			t.Fatalf("replica set for %d after drain: %v", loc, set)
		}
		for _, mem := range set {
			if mem.ID == "a" {
				t.Fatalf("draining member still owns loc %d", loc)
			}
			tn := nodes[mem.ID]
			wantPt, err := ref.PointPersistent(vhash.LocationID(loc), periods)
			if err != nil {
				t.Fatal(err)
			}
			gotPt, err := tn.node.PointPersistent(vhash.LocationID(loc), periods)
			if err != nil {
				t.Fatalf("replica %s point(%d) after join+drain: %v", mem.ID, loc, err)
			}
			if !reflect.DeepEqual(gotPt, wantPt) {
				t.Fatalf("replica %s point(%d) diverged after join+drain", mem.ID, loc)
			}
		}
	}
}

func TestRingSetPersistenceAndEpochGate(t *testing.T) {
	a := startNode(t, "a")
	r := ringOf(5, 1, a)
	pushRing(t, r, a)
	if _, err := os.Stat(filepath.Join(a.dir, "ring.json")); err != nil {
		t.Fatalf("accepted ring not persisted: %v", err)
	}

	// Same epoch: idempotent success. Older: rejected.
	pushRing(t, r, a)
	stale := r.Clone()
	stale.Epoch = 4
	enc, err := EncodeRing(stale)
	if err != nil {
		t.Fatal(err)
	}
	_, resp, _ := a.node.HandleFrame(transport.MsgRingSet, enc)
	if _, err := splitPayload(resp); err == nil {
		t.Fatal("stale ring push accepted")
	}

	// A fresh Node over the same ring path restores the ring.
	if err := a.node.Close(); err != nil {
		t.Fatal(err)
	}
	n2, err := NewNode(a.node.Durable, Config{ID: "a", RingPath: filepath.Join(a.dir, "ring.json")})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	got := n2.Ring()
	if got == nil || got.Epoch != 5 {
		t.Fatalf("restarted node ring = %+v, want epoch 5", got)
	}
}

func TestReplBatchDuplicateAndAppliedTracking(t *testing.T) {
	a := startNode(t, "a")
	rec := testRecord(t, 1, 1, 64)
	blob, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := transport.EncodeRecordBlobs([][]byte{blob})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeReplBatch(replHeader{From: "b", Epoch: 1, Through: 9}, batch)
	if err != nil {
		t.Fatal(err)
	}
	_, resp, handled := a.node.HandleFrame(transport.MsgReplBatch, payload)
	if !handled {
		t.Fatal("MsgReplBatch not handled")
	}
	ack, err := decodeReplAck(resp)
	if err != nil || !ack.OK || ack.Applied != 1 || ack.Dups != 0 {
		t.Fatalf("first apply ack = %+v, %v", ack, err)
	}
	// Redelivery: pure dup, still OK, watermark advances monotonically.
	payload2, err := encodeReplBatch(replHeader{From: "b", Epoch: 1, Through: 7}, batch)
	if err != nil {
		t.Fatal(err)
	}
	_, resp, _ = a.node.HandleFrame(transport.MsgReplBatch, payload2)
	ack, err = decodeReplAck(resp)
	if err != nil || !ack.OK || ack.Applied != 0 || ack.Dups != 1 {
		t.Fatalf("redelivery ack = %+v, %v", ack, err)
	}
	st := a.node.StatusSnapshot()
	if st.Applied["b"] != 9 {
		t.Fatalf("applied watermark = %d, want 9 (monotonic)", st.Applied["b"])
	}

	// The replicated record is stored bit for bit.
	got, unpin, ok := a.node.Store().Lookup(rec.Location, rec.Period)
	if !ok {
		t.Fatal("replicated record not stored")
	}
	defer unpin()
	if !got.Bitmap.Equal(rec.Bitmap) {
		t.Fatal("stored record differs from the replicated one")
	}
}

// joinFrame sends a MsgFetchRecords payload through the node's frame
// handler and decodes the answer as the router does.
func joinFrame(t *testing.T, n *Node, payload []byte) (*bitmap.Bitmap, []byte, error) {
	t.Helper()
	rt, resp, handled := n.HandleFrame(transport.MsgFetchRecords, payload)
	if !handled || rt != transport.MsgRecords {
		t.Fatalf("MsgFetchRecords: handled=%v response type %v", handled, rt)
	}
	e, err := DecodeJoinResponse(resp)
	return e, resp, err
}

func TestJoinFrame(t *testing.T) {
	a := startNode(t, "a")
	// Mixed record sizes: the join expands the 64-bit records to 128.
	for p := 1; p <= 5; p++ {
		if err := a.node.Durable.Ingest(testRecord(t, 1, p, 64<<(p/4))); err != nil {
			t.Fatal(err)
		}
	}
	req := func(periods ...record.PeriodID) []byte {
		t.Helper()
		b, err := EncodeJoinRequest(1, periods)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("bit-equal to AndAll over Collect", func(t *testing.T) {
		for _, ps := range [][]record.PeriodID{{1, 2}, {1, 2, 3}, {2, 4, 5}, {5, 1, 3, 4, 2}} {
			e, resp, err := joinFrame(t, a.node, req(ps...))
			if err != nil {
				t.Fatalf("periods %v: %v", ps, err)
			}
			recs, _, unpin, err := a.node.Store().Collect(1, ps)
			if err != nil {
				t.Fatal(err)
			}
			bms := make([]*bitmap.Bitmap, len(recs))
			for i, r := range recs {
				bms[i] = r.Bitmap
			}
			want, err := bitmap.AndAll(bms)
			unpin()
			if err != nil {
				t.Fatal(err)
			}
			if !e.Equal(want) {
				t.Fatalf("periods %v: join differs from AndAll", ps)
			}
			enc, err := want.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if len(resp) != 1+len(enc) {
				t.Fatalf("periods %v: response %d bytes, want status byte + %d-byte bitmap", ps, len(resp), len(enc))
			}
		}
	})

	for _, tc := range []struct {
		name    string
		payload []byte
		want    string // substring of the remote error
	}{
		{"missing period", req(1, 99), central.ErrNotFound.Error()},
		{"one period", req(3), "at least 2 periods"},
		{"no periods", req(), central.ErrNoPeriods.Error()},
		{"legacy whole-location request", make([]byte, 8), "whole-location"},
		{"truncated period list", req(1, 2, 3)[:8+2+4*2+1], "period list"},
		{"oversized period list", oversizedJoinRequest(), "max"},
		{"trailing bytes", append(req(1, 2), 0), "trailing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := joinFrame(t, a.node, tc.payload)
			if !transport.IsRemote(err) {
				t.Fatalf("err = %v, want a remote error", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// oversizedJoinRequest is a well-formed join request naming one period
// more than transport.MaxQueryPeriods.
func oversizedJoinRequest() []byte {
	b := make([]byte, 8+2+4*(transport.MaxQueryPeriods+1))
	binary.LittleEndian.PutUint64(b, 1)
	binary.LittleEndian.PutUint16(b[8:], transport.MaxQueryPeriods+1)
	for i := 0; i <= transport.MaxQueryPeriods; i++ {
		binary.LittleEndian.PutUint32(b[10+4*i:], uint32(i+1))
	}
	return b
}
