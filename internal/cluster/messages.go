package cluster

// Wire schemas for the cluster extension frames. Control-plane payloads
// (ring, status, acks) are JSON — low rate, operator-auditable. The
// data plane is binary: replication batches are the transport's
// record-batch codec behind a small JSON header, and a per-location join
// request is the transport's point-query layout, answered with one
// bitmap encoding. Responses that can fail carry the listing-style
// status byte: 1 = ok followed by the payload, 0 followed by an error
// string.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"ptm/internal/bitmap"
	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
)

// replHeader rides in front of every replication batch.
type replHeader struct {
	// From is the shipping node's ID.
	From string `json:"from"`
	// Epoch is the shipper's ring epoch; a receiver on an older ring
	// uses it as a hint to refresh.
	Epoch uint64 `json:"epoch"`
	// Through is the sender's WAL segment index this round ships
	// through. The receiver records it as its applied watermark for
	// From, which failover uses to pick the most-caught-up survivor.
	Through uint64 `json:"through"`
}

// replAck answers a replication batch.
type replAck struct {
	OK      bool   `json:"ok"`
	Applied int    `json:"applied"` // records newly ingested (duplicates excluded)
	Dups    int    `json:"dups"`    // records already present
	Err     string `json:"error,omitempty"`
}

// encodeReplBatch frames header + record batch: u16 LE header length,
// JSON header, then the transport record-batch payload.
func encodeReplBatch(h replHeader, batch []byte) ([]byte, error) {
	hj, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding repl header: %w", err)
	}
	if len(hj) > 1<<16-1 {
		return nil, fmt.Errorf("cluster: repl header %d bytes", len(hj))
	}
	buf := make([]byte, 2, 2+len(hj)+len(batch))
	binary.LittleEndian.PutUint16(buf[0:2], uint16(len(hj)))
	buf = append(buf, hj...)
	buf = append(buf, batch...)
	return buf, nil
}

// decodeReplBatch splits a replication frame into header and batch.
func decodeReplBatch(p []byte) (replHeader, []byte, error) {
	if len(p) < 2 {
		return replHeader{}, nil, fmt.Errorf("cluster: repl frame %d bytes", len(p))
	}
	hl := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) < 2+hl {
		return replHeader{}, nil, fmt.Errorf("cluster: repl header claims %d bytes, %d remain", hl, len(p)-2)
	}
	var h replHeader
	if err := json.Unmarshal(p[2:2+hl], &h); err != nil {
		return replHeader{}, nil, fmt.Errorf("cluster: decoding repl header: %w", err)
	}
	if h.From == "" {
		return replHeader{}, nil, fmt.Errorf("cluster: repl header has no sender")
	}
	return h, p[2+hl:], nil
}

func encodeReplAck(a replAck) []byte {
	b, err := json.Marshal(a)
	if err != nil {
		// A struct of bools, ints, and strings cannot fail to marshal.
		panic(err)
	}
	return b
}

func decodeReplAck(p []byte) (replAck, error) {
	var a replAck
	if err := json.Unmarshal(p, &a); err != nil {
		return replAck{}, fmt.Errorf("cluster: decoding repl ack: %w", err)
	}
	return a, nil
}

// okPayload frames a success response: status byte 1 then the body.
func okPayload(body []byte) []byte {
	return append([]byte{1}, body...)
}

// errPayload frames a failure response: status byte 0 then the message.
func errPayload(err error) []byte {
	return append([]byte{0}, err.Error()...)
}

// splitPayload undoes okPayload/errPayload.
func splitPayload(p []byte) ([]byte, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("cluster: empty response payload")
	}
	if p[0] != 1 {
		return nil, fmt.Errorf("cluster: remote: %s", p[1:])
	}
	return p[1:], nil
}

// DecodeResponse unwraps a status-byte-framed cluster response
// (MsgRing, MsgStatusResp): the remote error when the
// status byte is 0, the body otherwise. Exported for the router and
// ptmcluster.
func DecodeResponse(p []byte) ([]byte, error) {
	return splitPayload(p)
}

// legacyFetchLen is the size of the whole-location fetch request
// (a bare location ID) that nodes no longer serve.
const legacyFetchLen = 8

// EncodeJoinRequest frames a MsgFetchRecords request: one location and
// the periods whose first-level AND join the router needs, in the
// transport's point-query layout. Exported for the router.
func EncodeJoinRequest(loc vhash.LocationID, periods []record.PeriodID) ([]byte, error) {
	return transport.EncodePointQuery(transport.PointQuery{Loc: loc, Periods: periods})
}

// decodeJoinRequest parses a MsgFetchRecords request, rejecting the
// legacy whole-location form and period lists over the query bound.
func decodeJoinRequest(p []byte) (transport.PointQuery, error) {
	if len(p) == legacyFetchLen {
		return transport.PointQuery{}, fmt.Errorf("cluster: %d-byte whole-location fetch request is not served; send a location and its periods", len(p))
	}
	q, err := transport.DecodePointQuery(p)
	if err != nil {
		return transport.PointQuery{}, fmt.Errorf("cluster: join request: %w", err)
	}
	if len(q.Periods) > transport.MaxQueryPeriods {
		return transport.PointQuery{}, fmt.Errorf("cluster: join request names %d periods, max %d", len(q.Periods), transport.MaxQueryPeriods)
	}
	return q, nil
}

// DecodeJoinResponse parses a MsgRecords response into the first-level
// join E*, verifying the bitmap's checksum and size. A status-0 answer
// comes back as a *transport.RemoteError: the node is alive and said no
// (a period not stored, too few periods), which is as definitive as a
// failed point query. Exported for the router.
func DecodeJoinResponse(p []byte) (*bitmap.Bitmap, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("cluster: empty join response")
	}
	if p[0] != 1 {
		return nil, &transport.RemoteError{Msg: string(p[1:])}
	}
	e, err := bitmap.Unmarshal(p[1:])
	if err != nil {
		return nil, fmt.Errorf("cluster: join response: %w", err)
	}
	return e, nil
}

// PeerStatus is one peer's replication state as seen by the shipper.
type PeerStatus struct {
	// Shipped is the sender-side watermark: the peer has been sent every
	// needed record in WAL segments <= Shipped.
	Shipped uint64 `json:"shipped_segment"`
	// Lag is sealedSegments - Shipped at the last shipper round: how far
	// the peer trails the stable prefix.
	Lag uint64 `json:"lag_segments"`
	// Records counts records sent to this peer since startup.
	Records int64 `json:"records_shipped"`
	// FullSyncs counts full-state resyncs (epoch change, watermark
	// behind compaction, or first contact).
	FullSyncs int64 `json:"full_syncs"`
	// LastErr is the most recent shipping failure, empty when healthy.
	LastErr string `json:"last_error,omitempty"`
}

// Status is a node's cluster status summary, served on MsgStatus and
// mirrored on the HTTP /stats surface.
type Status struct {
	ID        string `json:"id"`
	RingEpoch uint64 `json:"ring_epoch"`
	// State is this node's state in its own ring view, or
	// "unconfigured" before any ring is installed.
	State     string `json:"state"`
	S         int    `json:"s"`
	Locations int    `json:"locations"`
	WALFirst  uint64 `json:"wal_first_segment"`
	WALActive uint64 `json:"wal_active_segment"`
	// Peers is the shipper's per-peer state, keyed by peer ID.
	Peers map[string]PeerStatus `json:"peers,omitempty"`
	// Applied maps a sending peer's ID to the WAL segment of theirs this
	// node has applied through — failover picks the survivor with the
	// highest applied watermark for the dead node.
	Applied map[string]uint64 `json:"applied,omitempty"`
}

func encodeStatus(st Status) ([]byte, error) {
	return json.Marshal(st)
}

// DecodeStatus parses a Status payload (after splitPayload); exported
// for ptmcluster and the router.
func DecodeStatus(p []byte) (Status, error) {
	var st Status
	if err := json.Unmarshal(p, &st); err != nil {
		return Status{}, fmt.Errorf("cluster: decoding status: %w", err)
	}
	return st, nil
}
