// Package cluster turns N centrald processes into one logical store.
//
// The paper's estimators only ever join bitmaps of the same location
// (point persistent, Eq. 12) or of a fixed location pair (point-to-point
// persistent, Eq. 21), so the location space partitions cleanly: a
// consistent-hash ring maps every location to an ordered replica set of
// R nodes, the first eligible of which leads the partition. Records are
// immutable and deduplicated by (location, period), which makes
// replication trivially convergent — any delivery order, any number of
// redeliveries, and any mix of full and incremental sync reach the same
// store contents, and therefore bit-identical estimates.
//
// The subsystem has four parts:
//
//   - Ring (this file): the versioned membership + partition map. Pure
//     data, JSON on the wire and on disk, epoch-ordered so every node
//     and client converges on the newest configuration it has seen.
//   - Node (node.go): wraps a WAL-backed central store; enforces
//     leader-only ingest, answers cluster frames (transport.Extension),
//     and runs the replication shipper.
//   - Shipper (repl.go): ships sealed WAL segments leader→followers and
//     holder→leader, with per-peer watermarks, catch-up, and full-state
//     resync when checkpoint compaction outruns a follower.
//   - Router (router/): the cluster-aware client — routes uploads to
//     partition leaders, scatter-gathers queries, computes
//     cross-partition point-to-point joins client-side.
package cluster

import (
	"encoding/json"
	"fmt"
	"sort"

	"ptm/internal/vhash"
)

// State is a member's lifecycle state in the ring.
type State uint8

// Member lifecycle states.
const (
	// StateJoining: the member owns its ring positions (replication is
	// filling it) but never leads and is not queried.
	StateJoining State = iota
	// StateUp: fully serving; may lead partitions.
	StateUp
	// StateDraining: being emptied for removal. Owns no ring positions —
	// its partitions' successors take over and replication re-ships.
	StateDraining
	// StateDown: failed. Still owns its positions (its data is on its
	// WAL); an explicit failover promotes a successor to lead them.
	StateDown
	// StateLeft: removed. Owns nothing; kept in the member list as a
	// tombstone so late ring pushes still reach a consistent view.
	StateLeft
)

var stateNames = map[State]string{
	StateJoining:  "joining",
	StateUp:       "up",
	StateDraining: "draining",
	StateDown:     "down",
	StateLeft:     "left",
}

// String implements fmt.Stringer.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// MarshalJSON encodes the state by name, keeping ring.json and the wire
// format human-auditable.
func (s State) MarshalJSON() ([]byte, error) {
	n, ok := stateNames[s]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown state %d", uint8(s))
	}
	return json.Marshal(n)
}

// UnmarshalJSON decodes a state name.
func (s *State) UnmarshalJSON(b []byte) error {
	var n string
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	for st, name := range stateNames {
		if name == n {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown state %q", n)
}

// Member is one node in the ring.
type Member struct {
	// ID is the stable node identity; ring positions hash the ID (never
	// the address), so a node can move hosts without moving data.
	ID string `json:"id"`
	// Addr is the node's transport address.
	Addr string `json:"addr"`
	// State is the lifecycle state.
	State State `json:"state"`
}

// Ring is a versioned cluster configuration: the member list and the
// parameters of the consistent-hash partition map. Rings are immutable
// values — mutate a Clone, bump Epoch, and push; every node and router
// adopts the highest epoch it has seen (last-writer-wins on a single
// admin plane).
type Ring struct {
	// Epoch orders configurations; a node accepts a pushed ring iff its
	// epoch is strictly newer than the one in effect.
	Epoch uint64 `json:"epoch"`
	// Replicas is R: the number of nodes owning each location.
	Replicas int `json:"replicas"`
	// VNodes is the number of ring positions per member; more positions
	// smooth the partition sizes and shrink rebalance movement.
	VNodes int `json:"vnodes"`
	// Members, sorted by ID. Order does not affect the hash placement
	// (positions are hashed from IDs), only display and iteration.
	Members []Member `json:"members"`
	// Promoted records explicit failovers: down member ID -> the ID of
	// the most-caught-up survivor the admin promoted. The presence of an
	// entry authorizes successors to lead the down member's partitions.
	Promoted map[string]string `json:"promoted,omitempty"`
}

// DefaultVNodes is the ring-position count per member used by
// `ptmcluster init` unless overridden.
const DefaultVNodes = 64

// MaxVNodes bounds VNodes. Every placement lookup builds members×VNodes
// positions, so a pushed ring with an absurd count would make the
// leader gate allocate without limit on every ingest.
const MaxVNodes = 1 << 10

// fnv1a64 is FNV-1a spelled out so the partition map is a frozen,
// dependency-free function of (member IDs, vnode index, location): the
// golden ring fixtures pin its outputs, and any change shows up as a
// deliberate fixture diff.
//
//ptm:inline
func fnv1aInit() uint64 { return 14695981039346656037 }

//ptm:inline
func fnv1aByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * 1099511628211 }

func fnv1aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnv1aByte(h, s[i])
	}
	return h
}

// mix64 is the murmur3 finalizer. Raw FNV-1a of the short, structured
// inputs here ("n03#\x07\x00\x00\x00") clusters badly on the ring —
// measured member shares ranged 5%–30% at 64 vnodes — because trailing
// near-constant bytes only churn the hash through multiplications. The
// finalizer's shift-xor-multiply cascade gives full avalanche, which
// brings shares to the ~1/N ± 1/sqrt(vnodes) a consistent-hash ring
// needs.
//
//ptm:inline
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pointFor places one of a member's vnodes on the ring.
func pointFor(id string, vnode int) uint64 {
	h := fnv1aString(fnv1aInit(), id)
	h = fnv1aByte(h, '#')
	for i := 0; i < 4; i++ {
		h = fnv1aByte(h, byte(vnode>>(8*i)))
	}
	return mix64(h)
}

// locPoint places a location on the ring.
func locPoint(loc vhash.LocationID) uint64 {
	h := fnv1aInit()
	for i := 0; i < 8; i++ {
		h = fnv1aByte(h, byte(uint64(loc)>>(8*i)))
	}
	return mix64(h)
}

// Validate checks structural invariants.
func (r *Ring) Validate() error {
	if r.Replicas < 1 {
		return fmt.Errorf("cluster: ring replicas %d < 1", r.Replicas)
	}
	if r.VNodes < 1 || r.VNodes > MaxVNodes {
		return fmt.Errorf("cluster: ring vnodes %d not in [1, %d]", r.VNodes, MaxVNodes)
	}
	if len(r.Members) == 0 {
		return fmt.Errorf("cluster: ring has no members")
	}
	seen := make(map[string]bool, len(r.Members))
	owners := 0
	for _, m := range r.Members {
		if m.ID == "" {
			return fmt.Errorf("cluster: member with empty ID")
		}
		if seen[m.ID] {
			return fmt.Errorf("cluster: duplicate member ID %q", m.ID)
		}
		seen[m.ID] = true
		if m.Addr == "" && m.State != StateLeft {
			return fmt.Errorf("cluster: member %q has no address", m.ID)
		}
		if m.State == StateJoining || m.State == StateUp || m.State == StateDown {
			owners++
		}
	}
	if owners == 0 {
		return fmt.Errorf("cluster: ring has no position-owning members")
	}
	for down, standby := range r.Promoted {
		dm, ok := r.Member(down)
		if !ok {
			return fmt.Errorf("cluster: promotion for unknown member %q", down)
		}
		if dm.State != StateDown {
			return fmt.Errorf("cluster: promotion for member %q in state %v (want down)", down, dm.State)
		}
		sm, ok := r.Member(standby)
		if !ok {
			return fmt.Errorf("cluster: promotion of unknown member %q", standby)
		}
		if sm.State != StateUp {
			return fmt.Errorf("cluster: promoted member %q in state %v (want up)", standby, sm.State)
		}
	}
	return nil
}

// Member looks a member up by ID.
func (r *Ring) Member(id string) (Member, bool) {
	for _, m := range r.Members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// Clone deep-copies the ring for mutate-and-push.
func (r *Ring) Clone() *Ring {
	c := &Ring{Epoch: r.Epoch, Replicas: r.Replicas, VNodes: r.VNodes}
	c.Members = append([]Member(nil), r.Members...)
	if r.Promoted != nil {
		c.Promoted = make(map[string]string, len(r.Promoted))
		for k, v := range r.Promoted {
			c.Promoted[k] = v
		}
	}
	return c
}

// SortMembers orders the member list by ID (display/diff stability; the
// partition map does not depend on it).
func (r *Ring) SortMembers() {
	sort.Slice(r.Members, func(i, j int) bool { return r.Members[i].ID < r.Members[j].ID })
}

// ownsPositions reports whether a member's vnodes participate in the
// walk. Draining and departed members own nothing — their partitions
// fall to the next owners and replication re-ships.
func ownsPositions(s State) bool {
	return s == StateJoining || s == StateUp || s == StateDown
}

// ringPoint is one vnode position.
type ringPoint struct {
	point  uint64
	member int // index into Members
}

// points builds the sorted vnode positions of all owning members. Ties
// on the hash value break by member ID then vnode order, so the walk is
// total and deterministic.
func (r *Ring) points() []ringPoint {
	pts := make([]ringPoint, 0, len(r.Members)*r.VNodes)
	for mi, m := range r.Members {
		if !ownsPositions(m.State) {
			continue
		}
		for v := 0; v < r.VNodes; v++ {
			pts = append(pts, ringPoint{point: pointFor(m.ID, v), member: mi})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].point != pts[j].point {
			return pts[i].point < pts[j].point
		}
		a, b := r.Members[pts[i].member], r.Members[pts[j].member]
		return a.ID < b.ID
	})
	return pts
}

// ReplicaSet returns the ordered replica set for loc: walking clockwise
// from the location's hash point, the first Replicas distinct owning
// members. Fewer than Replicas members may be returned when the ring is
// smaller than R. The first element is the partition's primary (its
// leader when eligible — see Leader).
func (r *Ring) ReplicaSet(loc vhash.LocationID) []Member {
	pts := r.points()
	return r.walk(pts, loc)
}

// walk performs the clockwise collection over prebuilt points.
func (r *Ring) walk(pts []ringPoint, loc vhash.LocationID) []Member {
	if len(pts) == 0 {
		return nil
	}
	want := r.Replicas
	h := locPoint(loc)
	start := sort.Search(len(pts), func(i int) bool { return pts[i].point >= h })
	out := make([]Member, 0, want)
	taken := make(map[int]bool, want)
	for i := 0; i < len(pts) && len(out) < want; i++ {
		p := pts[(start+i)%len(pts)]
		if taken[p.member] {
			continue
		}
		taken[p.member] = true
		out = append(out, r.Members[p.member])
	}
	return out
}

// NoLeaderPrefix prefixes every ErrNoLeader message so routers can
// recognize the condition through transport wrapping (see IsLeaderless).
const NoLeaderPrefix = "cluster: leaderless"

// ErrNoLeader reports a partition whose primary is down and not failed
// over: ingest for it must wait for `ptmcluster failover` (or the node's
// return), because silently promoting an arbitrary survivor could elect
// a less-caught-up one.
type ErrNoLeader struct {
	Loc  vhash.LocationID
	Down string // the down, unpromoted member blocking the partition
}

// Error implements error.
func (e *ErrNoLeader) Error() string {
	return fmt.Sprintf("%s: location %d: member %q is down and not failed over", NoLeaderPrefix, e.Loc, e.Down)
}

// Leader resolves the partition leader for loc: the first replica-set
// member that may lead. StateUp leads. StateJoining is skipped (still
// catching up). StateDown blocks the partition — unless the ring records
// a failover for it, in which case the promoted survivor leads when it
// is in the replica set, and otherwise the walk continues to the next
// eligible replica.
func (r *Ring) Leader(loc vhash.LocationID) (Member, error) {
	set := r.ReplicaSet(loc)
	for _, m := range set {
		switch m.State {
		case StateUp:
			return m, nil
		case StateJoining:
			continue
		case StateDown:
			standby, promoted := r.Promoted[m.ID]
			if !promoted {
				return Member{}, &ErrNoLeader{Loc: loc, Down: m.ID}
			}
			for _, s := range set {
				if s.ID == standby && s.State == StateUp {
					return s, nil
				}
			}
			// The promoted survivor does not hold this partition; the
			// next replica in walk order is its natural successor.
			continue
		default:
			continue
		}
	}
	return Member{}, fmt.Errorf("cluster: location %d has no eligible leader among %d replicas", loc, len(set))
}

// EncodeRing serializes a ring for the wire and ring.json.
func EncodeRing(r *Ring) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DecodeRing parses and validates a serialized ring.
func DecodeRing(b []byte) (*Ring, error) {
	var r Ring
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("cluster: decoding ring: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
