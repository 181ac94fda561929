package cluster

import (
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"ptm/internal/central"
	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/wal"
)

// fuzzFrames are the frame types a cluster node serves.
var fuzzFrames = []transport.MsgType{
	transport.MsgRingGet, transport.MsgRingSet, transport.MsgReplBatch,
	transport.MsgFetchRecords, transport.MsgStatus,
}

// FuzzClusterFrames: every cluster frame a node serves — ring-set JSON,
// replication batches (header and records), per-location join requests
// — and the router's join-response decoder must answer hostile bytes
// with an error, never a panic, and never allocate beyond a fixed
// multiple of the bytes received. Each answer must be frameable and
// decode as its consumer decodes it.
func FuzzClusterFrames(f *testing.F) {
	dir := f.TempDir()
	d, err := central.OpenDurable(dir, testS, central.DefaultShards,
		wal.Options{Sync: wal.SyncNever, SegmentSize: 1 << 14}, 0)
	if err != nil {
		f.Fatal(err)
	}
	n, err := NewNode(d, Config{ID: "a", RingPath: filepath.Join(dir, "ring.json")})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		_ = n.Close()
		_ = d.Close()
	})
	for p := 1; p <= 3; p++ {
		if err := d.Ingest(testRecord(f, 1, p, 64)); err != nil {
			f.Fatal(err)
		}
	}

	ring, err := EncodeRing(&Ring{Epoch: 1, Replicas: 1, VNodes: DefaultVNodes,
		Members: []Member{{ID: "a", Addr: "127.0.0.1:1", State: StateUp}}})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := testRecord(f, 2, 1, 64).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	batch, err := transport.EncodeRecordBlobs([][]byte{blob})
	if err != nil {
		f.Fatal(err)
	}
	repl, err := encodeReplBatch(replHeader{From: "b", Epoch: 1, Through: 1}, batch)
	if err != nil {
		f.Fatal(err)
	}
	join, err := EncodeJoinRequest(1, []record.PeriodID{1, 2, 3})
	if err != nil {
		f.Fatal(err)
	}
	frameIndex := func(t transport.MsgType) uint8 {
		for i, ft := range fuzzFrames {
			if ft == t {
				return uint8(i)
			}
		}
		f.Fatalf("frame %v not fuzzed", t)
		return 0
	}
	f.Add(frameIndex(transport.MsgRingSet), ring)
	f.Add(frameIndex(transport.MsgRingSet), []byte(`{"epoch":9,"replicas":1,"vnodes":2000000000,"members":[{"id":"a","addr":"x"}]}`))
	f.Add(frameIndex(transport.MsgReplBatch), repl)
	f.Add(frameIndex(transport.MsgReplBatch), []byte{0xff, 0xff, '{'})
	f.Add(frameIndex(transport.MsgFetchRecords), join)
	f.Add(frameIndex(transport.MsgFetchRecords), join[:len(join)-1])
	f.Add(frameIndex(transport.MsgFetchRecords), make([]byte, legacyFetchLen))
	f.Add(frameIndex(transport.MsgFetchRecords), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})
	f.Add(frameIndex(transport.MsgRingGet), []byte{})
	f.Add(frameIndex(transport.MsgStatus), []byte{})
	_, joined, _ := n.HandleFrame(transport.MsgFetchRecords, join)
	f.Add(frameIndex(transport.MsgFetchRecords), joined)

	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		mt := fuzzFrames[int(typ)%len(fuzzFrames)]
		rt, resp, handled := n.HandleFrame(mt, payload)
		if !handled {
			t.Fatalf("%v not handled", mt)
		}
		if err := transport.WriteFrame(io.Discard, rt, resp); err != nil {
			t.Fatalf("%v: unframeable response: %v", mt, err)
		}
		switch mt {
		case transport.MsgRingGet, transport.MsgRingSet:
			if body, err := DecodeResponse(resp); err == nil {
				r, err := DecodeRing(body)
				if err != nil {
					t.Fatalf("%v: ring in effect does not decode: %v", mt, err)
				}
				// Placement is what the leader gate runs on every ingest.
				_ = r.ReplicaSet(1)
			}
		case transport.MsgReplBatch:
			if _, err := decodeReplAck(resp); err != nil {
				t.Fatalf("repl ack does not decode: %v", err)
			}
		case transport.MsgFetchRecords:
			_, _ = DecodeJoinResponse(resp)
		case transport.MsgStatus:
			body, err := DecodeResponse(resp)
			if err != nil {
				t.Fatalf("status: %v", err)
			}
			if _, err := DecodeStatus(body); err != nil {
				t.Fatalf("status does not decode: %v", err)
			}
		}
		// The same bytes as a join response, as the router decodes them.
		_, _ = DecodeJoinResponse(payload)

		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(32<<20+(32<<10)*len(payload)); grew > bound {
			t.Fatalf("%v with a %d-byte payload allocated %d bytes, bound %d", mt, len(payload), grew, bound)
		}
	})
}
