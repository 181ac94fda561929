package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptm/internal/vhash"
)

// testRing builds an all-Up ring of n members n01..n0n.
func testRing(n, replicas, vnodes int) *Ring {
	r := &Ring{Epoch: 1, Replicas: replicas, VNodes: vnodes}
	for i := 1; i <= n; i++ {
		r.Members = append(r.Members, Member{
			ID:    fmt.Sprintf("n%02d", i),
			Addr:  fmt.Sprintf("10.0.0.%d:9000", i),
			State: StateUp,
		})
	}
	return r
}

func setIDs(set []Member) string {
	ids := make([]string, len(set))
	for i, m := range set {
		ids[i] = m.ID
	}
	return strings.Join(ids, ",")
}

// TestRingAssignmentsGolden pins the partition map: the replica set and
// leader of 24 locations for clusters of 1, 3, and 5 members. The map
// is a frozen function of (member IDs, vnode index, location) — any
// change to the hashing, the walk, or the tie-break shows up as a
// fixture diff and is a breaking change for every deployed cluster
// (every node must agree on the map, and a silent change would reshuffle
// partitions under live data). Regenerate deliberately with
// PTM_UPDATE_GOLDEN=1 go test ./internal/cluster -run Golden.
func TestRingAssignmentsGolden(t *testing.T) {
	var b strings.Builder
	for _, cfg := range []struct{ n, r int }{{1, 1}, {3, 2}, {5, 3}} {
		ring := testRing(cfg.n, cfg.r, DefaultVNodes)
		for loc := vhash.LocationID(1); loc <= 24; loc++ {
			set := ring.ReplicaSet(loc)
			leader, err := ring.Leader(loc)
			if err != nil {
				t.Fatalf("N=%d loc=%d: %v", cfg.n, loc, err)
			}
			fmt.Fprintf(&b, "N=%d R=%d loc=%d set=%s leader=%s\n",
				cfg.n, cfg.r, loc, setIDs(set), leader.ID)
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "ring_assignments.golden")
	if os.Getenv("PTM_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden fixture (PTM_UPDATE_GOLDEN=1 to generate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("ring assignments diverged from golden fixture.\nThis reshuffles every deployed cluster's partitions; if intended, regenerate with PTM_UPDATE_GOLDEN=1.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRingRebalanceMovementBound pins the consistent-hashing contract:
// a single join or leave moves only the keys adjacent to the changed
// member's vnodes — about 1/N of them — and every moved key moves
// to/from the changed member, never between two unchanged members.
func TestRingRebalanceMovementBound(t *testing.T) {
	const nLocs = 8192
	const n = 5
	base := testRing(n, 1, DefaultVNodes)

	owner := func(r *Ring, loc vhash.LocationID) string {
		set := r.ReplicaSet(loc)
		if len(set) == 0 {
			t.Fatalf("loc %d has no owner", loc)
		}
		return set[0].ID
	}
	before := make([]string, nLocs)
	for i := range before {
		before[i] = owner(base, vhash.LocationID(i))
	}

	t.Run("join", func(t *testing.T) {
		joined := base.Clone()
		joined.Epoch++
		joined.Members = append(joined.Members, Member{ID: "n06", Addr: "10.0.0.6:9000", State: StateUp})
		moved := 0
		for i := range before {
			after := owner(joined, vhash.LocationID(i))
			if after == before[i] {
				continue
			}
			moved++
			if after != "n06" {
				t.Fatalf("loc %d moved %s->%s: a join may only move keys to the joined member", i, before[i], after)
			}
		}
		// Expectation nLocs/(n+1); allow generous slack for vnode
		// placement variance at 64 vnodes/member.
		bound := nLocs * 16 / ((n + 1) * 10) // 1.6/(n+1)
		if moved == 0 || moved > bound {
			t.Fatalf("join moved %d/%d keys, want (0, %d]", moved, nLocs, bound)
		}
		t.Logf("join moved %d/%d keys (ideal %d)", moved, nLocs, nLocs/(n+1))
	})

	t.Run("leave", func(t *testing.T) {
		left := base.Clone()
		left.Epoch++
		left.Members[n-1].State = StateLeft
		left.Members[n-1].Addr = ""
		gone := base.Members[n-1].ID
		moved := 0
		for i := range before {
			after := owner(left, vhash.LocationID(i))
			if after == before[i] {
				continue
			}
			moved++
			if before[i] != gone {
				t.Fatalf("loc %d moved %s->%s: a leave may only move the departed member's keys", i, before[i], after)
			}
		}
		bound := nLocs * 16 / (n * 10) // 1.6/n
		if moved == 0 || moved > bound {
			t.Fatalf("leave moved %d/%d keys, want (0, %d]", moved, nLocs, bound)
		}
		t.Logf("leave moved %d/%d keys (ideal %d)", moved, nLocs, nLocs/n)
	})
}

func TestRingLeaderLifecycle(t *testing.T) {
	r := testRing(3, 2, DefaultVNodes)
	loc := vhash.LocationID(7)
	set := r.ReplicaSet(loc)
	if len(set) != 2 {
		t.Fatalf("replica set size = %d, want 2", len(set))
	}
	primary, second := set[0], set[1]

	lead, err := r.Leader(loc)
	if err != nil || lead.ID != primary.ID {
		t.Fatalf("Leader = %v, %v; want primary %s", lead.ID, err, primary.ID)
	}

	// A joining primary is skipped: the next Up replica leads.
	mark := func(r *Ring, id string, s State) {
		for i := range r.Members {
			if r.Members[i].ID == id {
				r.Members[i].State = s
			}
		}
	}
	joining := r.Clone()
	mark(joining, primary.ID, StateJoining)
	if lead, err = joining.Leader(loc); err != nil || lead.ID != second.ID {
		t.Fatalf("joining primary: leader = %v, %v; want %s", lead.ID, err, second.ID)
	}

	// A down, unpromoted primary blocks the partition.
	down := r.Clone()
	mark(down, primary.ID, StateDown)
	if _, err := down.Leader(loc); err == nil {
		t.Fatal("down unpromoted primary: want ErrNoLeader")
	} else {
		var nl *ErrNoLeader
		if !asErrNoLeader(err, &nl) || nl.Down != primary.ID {
			t.Fatalf("down unpromoted primary: err = %v, want ErrNoLeader{%s}", err, primary.ID)
		}
	}

	// Promotion authorizes the standby (in the set) to lead.
	promoted := down.Clone()
	promoted.Promoted = map[string]string{primary.ID: second.ID}
	if err := promoted.Validate(); err != nil {
		t.Fatalf("promoted ring invalid: %v", err)
	}
	if lead, err = promoted.Leader(loc); err != nil || lead.ID != second.ID {
		t.Fatalf("promoted: leader = %v, %v; want standby %s", lead.ID, err, second.ID)
	}

	// A draining member owns nothing: it appears in no replica set.
	drain := r.Clone()
	mark(drain, primary.ID, StateDraining)
	for i := 0; i < 64; i++ {
		for _, m := range drain.ReplicaSet(vhash.LocationID(i)) {
			if m.ID == primary.ID {
				t.Fatalf("draining member %s still owns loc %d", primary.ID, i)
			}
		}
	}
}

func asErrNoLeader(err error, out **ErrNoLeader) bool {
	nl, ok := err.(*ErrNoLeader)
	if ok {
		*out = nl
	}
	return ok
}

func TestRingValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Ring)
	}{
		{"no replicas", func(r *Ring) { r.Replicas = 0 }},
		{"no vnodes", func(r *Ring) { r.VNodes = 0 }},
		{"too many vnodes", func(r *Ring) { r.VNodes = MaxVNodes + 1 }},
		{"no members", func(r *Ring) { r.Members = nil }},
		{"empty ID", func(r *Ring) { r.Members[0].ID = "" }},
		{"dup ID", func(r *Ring) { r.Members[1].ID = r.Members[0].ID }},
		{"no addr", func(r *Ring) { r.Members[0].Addr = "" }},
		{"all left", func(r *Ring) {
			for i := range r.Members {
				r.Members[i].State = StateLeft
				r.Members[i].Addr = ""
			}
		}},
		{"promoted unknown", func(r *Ring) { r.Promoted = map[string]string{"nope": "n01"} }},
		{"promoted not down", func(r *Ring) { r.Promoted = map[string]string{"n01": "n02"} }},
		{"standby not up", func(r *Ring) {
			r.Members[0].State = StateDown
			r.Members[1].State = StateDown
			r.Promoted = map[string]string{"n01": "n02"}
		}},
	}
	for _, tc := range cases {
		r := testRing(3, 2, 8)
		tc.mut(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
	if err := testRing(3, 2, 8).Validate(); err != nil {
		t.Fatalf("valid ring rejected: %v", err)
	}
}

func TestRingJSONRoundTrip(t *testing.T) {
	r := testRing(3, 2, 16)
	r.Members[1].State = StateDown
	r.Members[2].State = StateJoining
	// A promoted standby must be Up and the down member Down; use n01.
	r.Promoted = map[string]string{"n02": "n01"}
	b, err := EncodeRing(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"up"`, `"down"`, `"joining"`} {
		if !strings.Contains(string(b), name) {
			t.Fatalf("encoded ring missing state name %s:\n%s", name, b)
		}
	}
	got, err := DecodeRing(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != r.Epoch || got.Replicas != r.Replicas || got.VNodes != r.VNodes ||
		len(got.Members) != len(r.Members) || got.Promoted["n02"] != "n01" {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
	for i := range r.Members {
		if got.Members[i] != r.Members[i] {
			t.Fatalf("member %d: %+v vs %+v", i, got.Members[i], r.Members[i])
		}
	}
	if _, err := DecodeRing([]byte(`{"epoch":1}`)); err == nil {
		t.Fatal("DecodeRing accepted an invalid ring")
	}
}
