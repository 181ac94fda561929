package router

// Cluster-plane benchmarks over real loopback nodes (make bench-cluster
// -> BENCH_pr10.json). Every sub-benchmark name carries nodes= and
// replicas= key=value segments, which cmd/benchjson lifts into
// structured params, so baselines compare the single-node and
// replicated configurations directly:
//
//   - BenchmarkClusterUpload: routed UploadBatch to ack — the leader
//     gate, WAL append (SyncAlways), and store ingest, without
//     replication. nodes=1/replicas=1 is the single-node floor.
//   - BenchmarkClusterShip: one shipper round across all nodes after a
//     fresh batch — the incremental cost of pushing sealed WAL segments
//     to R-1 followers.
//   - BenchmarkClusterQueryP2P: point-to-point estimates through the
//     router; path=server is the colocated push-down, path=client the
//     cross-partition path (two per-location joins, second level in the
//     router).

import (
	"fmt"
	"testing"
	"time"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

const benchUploadLocs = 8

func benchCluster(b *testing.B, nNodes, replicas int) ([]*testNode, *Router) {
	b.Helper()
	var nodes []*testNode
	for i := 0; i < nNodes; i++ {
		nodes = append(nodes, startNode(b, string(rune('a'+i))))
	}
	pushRingWire(b, ringOf(1, replicas, nodes...), nodes...)
	rt, err := Dial([]string{nodes[0].addr}, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		//ptmlint:allow errdrop -- benchmark teardown
		_ = rt.Close()
	})
	return nodes, rt
}

// benchBatch builds one period's records for locations 1..benchUploadLocs.
// Records are immutable and deduplicated, so every iteration needs a
// fresh period; generation (a few bitmap sets) is noise against the TCP
// round trip and the SyncAlways fsync being measured.
func benchBatch(b *testing.B, period int) []*record.Record {
	b.Helper()
	recs := make([]*record.Record, benchUploadLocs)
	for j := range recs {
		recs[j] = testRecord(b, j+1, period, 1<<12)
	}
	return recs
}

func BenchmarkClusterUpload(b *testing.B) {
	for _, cfg := range []struct{ nodes, replicas int }{{1, 1}, {3, 2}, {5, 3}} {
		name := fmt.Sprintf("nodes=%d/replicas=%d/locs=%d", cfg.nodes, cfg.replicas, benchUploadLocs)
		b.Run(name, func(b *testing.B) {
			_, rt := benchCluster(b, cfg.nodes, cfg.replicas)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs := benchBatch(b, i+1)
				if n, err := rt.UploadBatch(recs); err != nil || n != len(recs) {
					b.Fatalf("accepted %d/%d: %v", n, len(recs), err)
				}
			}
			b.ReportMetric(float64(benchUploadLocs), "records/op")
		})
	}
}

func BenchmarkClusterShip(b *testing.B) {
	for _, cfg := range []struct{ nodes, replicas int }{{3, 2}, {5, 3}} {
		name := fmt.Sprintf("nodes=%d/replicas=%d/locs=%d", cfg.nodes, cfg.replicas, benchUploadLocs)
		b.Run(name, func(b *testing.B) {
			nodes, rt := benchCluster(b, cfg.nodes, cfg.replicas)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				recs := benchBatch(b, i+1)
				if _, err := rt.UploadBatch(recs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, tn := range nodes {
					if err := tn.node.ShipNow(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkClusterQueryP2P(b *testing.B) {
	const nodes, replicas, periods = 3, 2, 4
	tns, rt := benchCluster(b, nodes, replicas)
	for p := 1; p <= periods; p++ {
		if _, err := rt.UploadBatch(benchBatch(b, p)); err != nil {
			b.Fatal(err)
		}
	}
	shipAll(b, 2, tns...)

	// Find one colocated pair (served by the leader's fused join) and
	// one cross-partition pair (joined per location, finished in the
	// router).
	ring := rt.Ring()
	var sameA, sameB, crossA, crossB vhash.LocationID
	for i := 1; i <= benchUploadLocs && (sameA == 0 || crossA == 0); i++ {
		for j := i + 1; j <= benchUploadLocs; j++ {
			li, err := ring.Leader(vhash.LocationID(i))
			if err != nil {
				b.Fatal(err)
			}
			lj, err := ring.Leader(vhash.LocationID(j))
			if err != nil {
				b.Fatal(err)
			}
			if li.ID == lj.ID && sameA == 0 {
				sameA, sameB = vhash.LocationID(i), vhash.LocationID(j)
			}
			if li.ID != lj.ID && crossA == 0 {
				crossA, crossB = vhash.LocationID(i), vhash.LocationID(j)
			}
		}
	}
	if sameA == 0 || crossA == 0 {
		b.Skip("hash placement yielded no same- or cross-partition pair")
	}
	ps := make([]record.PeriodID, periods)
	for i := range ps {
		ps[i] = record.PeriodID(i + 1)
	}

	run := func(path string, la, lb vhash.LocationID) {
		name := fmt.Sprintf("nodes=%d/replicas=%d/path=%s/t=%d", nodes, replicas, path, periods)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rt.QueryPointToPointPersistent(la, lb, ps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("server", sameA, sameB)
	run("client", crossA, crossB)
}
