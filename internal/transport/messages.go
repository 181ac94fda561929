package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

// VolumeQuery asks for the Eq. (1) volume estimate of one record.
type VolumeQuery struct {
	Loc    vhash.LocationID
	Period record.PeriodID
}

func (q VolumeQuery) encode() []byte {
	buf := make([]byte, 12)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(q.Loc))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(q.Period))
	return buf
}

func decodeVolumeQuery(b []byte) (VolumeQuery, error) {
	if len(b) != 12 {
		return VolumeQuery{}, fmt.Errorf("%w: volume query length %d", ErrBadFrame, len(b))
	}
	return VolumeQuery{
		Loc:    vhash.LocationID(binary.LittleEndian.Uint64(b[0:8])),
		Period: record.PeriodID(binary.LittleEndian.Uint32(b[8:12])),
	}, nil
}

// PointQuery asks for the Eq. (12) point persistent estimate.
type PointQuery struct {
	Loc     vhash.LocationID
	Periods []record.PeriodID
}

func encodePeriods(buf []byte, ps []record.PeriodID) []byte {
	var lenBuf [2]byte
	binary.LittleEndian.PutUint16(lenBuf[:], uint16(len(ps)))
	buf = append(buf, lenBuf[:]...)
	for _, p := range ps {
		var pb [4]byte
		binary.LittleEndian.PutUint32(pb[:], uint32(p))
		buf = append(buf, pb[:]...)
	}
	return buf
}

func decodePeriods(b []byte) ([]record.PeriodID, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("%w: truncated period list", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint16(b[0:2]))
	b = b[2:]
	if len(b) < 4*n {
		return nil, nil, fmt.Errorf("%w: period list claims %d entries", ErrBadFrame, n)
	}
	out := make([]record.PeriodID, n)
	for i := range out {
		out[i] = record.PeriodID(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, b[4*n:], nil
}

// MaxQueryPeriods bounds the period list in a single query.
const MaxQueryPeriods = 1 << 12

func (q PointQuery) encode() ([]byte, error) {
	if len(q.Periods) > MaxQueryPeriods {
		return nil, fmt.Errorf("%w: %d periods", ErrBadFrame, len(q.Periods))
	}
	buf := make([]byte, 8, 8+2+4*len(q.Periods))
	binary.LittleEndian.PutUint64(buf[0:8], uint64(q.Loc))
	return encodePeriods(buf, q.Periods), nil
}

func decodePointQuery(b []byte) (PointQuery, error) {
	if len(b) < 8 {
		return PointQuery{}, fmt.Errorf("%w: point query length %d", ErrBadFrame, len(b))
	}
	loc := vhash.LocationID(binary.LittleEndian.Uint64(b[0:8]))
	ps, rest, err := decodePeriods(b[8:])
	if err != nil {
		return PointQuery{}, err
	}
	if len(rest) != 0 {
		return PointQuery{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(rest))
	}
	return PointQuery{Loc: loc, Periods: ps}, nil
}

// EncodePointQuery frames a location and its period list in the
// MsgQueryPoint payload layout — exported for protocol extensions (the
// cluster's per-location join request) that name one location's periods.
func EncodePointQuery(q PointQuery) ([]byte, error) {
	return q.encode()
}

// DecodePointQuery parses a payload framed by EncodePointQuery.
func DecodePointQuery(b []byte) (PointQuery, error) {
	return decodePointQuery(b)
}

// P2PQuery asks for the Eq. (21) point-to-point persistent estimate.
type P2PQuery struct {
	LocA, LocB vhash.LocationID
	Periods    []record.PeriodID
}

func (q P2PQuery) encode() ([]byte, error) {
	if len(q.Periods) > MaxQueryPeriods {
		return nil, fmt.Errorf("%w: %d periods", ErrBadFrame, len(q.Periods))
	}
	buf := make([]byte, 16, 16+2+4*len(q.Periods))
	binary.LittleEndian.PutUint64(buf[0:8], uint64(q.LocA))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(q.LocB))
	return encodePeriods(buf, q.Periods), nil
}

func decodeP2PQuery(b []byte) (P2PQuery, error) {
	if len(b) < 16 {
		return P2PQuery{}, fmt.Errorf("%w: p2p query length %d", ErrBadFrame, len(b))
	}
	locA := vhash.LocationID(binary.LittleEndian.Uint64(b[0:8]))
	locB := vhash.LocationID(binary.LittleEndian.Uint64(b[8:16]))
	ps, rest, err := decodePeriods(b[16:])
	if err != nil {
		return P2PQuery{}, err
	}
	if len(rest) != 0 {
		return P2PQuery{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(rest))
	}
	return P2PQuery{LocA: locA, LocB: locB, Periods: ps}, nil
}

// Listing payloads: a status byte (1 = ok), then on success a uint32
// count followed by fixed-width entries; on failure an error string.

func encodeLocationList(locs []vhash.LocationID) []byte {
	buf := make([]byte, 5+8*len(locs))
	buf[0] = 1
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(locs)))
	for i, l := range locs {
		binary.LittleEndian.PutUint64(buf[5+8*i:], uint64(l))
	}
	return buf
}

func decodeLocationList(b []byte) ([]vhash.LocationID, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: empty list payload", ErrBadFrame)
	}
	if b[0] != 1 {
		return nil, &RemoteError{Msg: string(b[1:])}
	}
	if len(b) < 5 {
		return nil, fmt.Errorf("%w: short location list", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint32(b[1:5]))
	if len(b) != 5+8*n {
		return nil, fmt.Errorf("%w: location list claims %d entries", ErrBadFrame, n)
	}
	out := make([]vhash.LocationID, n)
	for i := range out {
		out[i] = vhash.LocationID(binary.LittleEndian.Uint64(b[5+8*i:]))
	}
	return out, nil
}

func encodePeriodList(ps []record.PeriodID) []byte {
	buf := make([]byte, 5+4*len(ps))
	buf[0] = 1
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(ps)))
	for i, p := range ps {
		binary.LittleEndian.PutUint32(buf[5+4*i:], uint32(p))
	}
	return buf
}

func decodePeriodList(b []byte) ([]record.PeriodID, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: empty list payload", ErrBadFrame)
	}
	if b[0] != 1 {
		return nil, &RemoteError{Msg: string(b[1:])}
	}
	if len(b) < 5 {
		return nil, fmt.Errorf("%w: short period list", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint32(b[1:5]))
	if len(b) != 5+4*n {
		return nil, fmt.Errorf("%w: period list claims %d entries", ErrBadFrame, n)
	}
	out := make([]record.PeriodID, n)
	for i := range out {
		out[i] = record.PeriodID(binary.LittleEndian.Uint32(b[5+4*i:]))
	}
	return out, nil
}

// MaxBatchRecords bounds the record count in one UploadBatch frame. The
// frame size cap (MaxFrameSize) already bounds the payload; this bounds
// the per-record bookkeeping a hostile count could demand.
const MaxBatchRecords = 1 << 16

// encodeUploadBatch frames the records: uint32 count, then per record a
// uint32 length and the record.MarshalBinary blob.
//
//ptm:sink transport upload
func encodeUploadBatch(recs []*record.Record) ([]byte, error) {
	if len(recs) == 0 || len(recs) > MaxBatchRecords {
		return nil, fmt.Errorf("%w: batch of %d records", ErrBadFrame, len(recs))
	}
	buf := make([]byte, 4, 4+len(recs)*512)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(recs)))
	for _, rec := range recs {
		blob, err := rec.MarshalBinary()
		if err != nil {
			return nil, err
		}
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(blob)))
		buf = append(buf, lenBuf[:]...)
		buf = append(buf, blob...)
	}
	if len(buf) > MaxFrameSize {
		return nil, fmt.Errorf("%w: batch payload %d bytes", ErrFrameTooLarge, len(buf))
	}
	return buf, nil
}

// decodeUploadBatch parses an UploadBatch payload. The count is validated
// against the remaining bytes before any allocation so a hostile frame
// cannot demand more memory than it paid for on the wire.
func decodeUploadBatch(b []byte) ([]*record.Record, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: batch header %d bytes", ErrBadFrame, len(b))
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	b = b[4:]
	if n == 0 || n > MaxBatchRecords {
		return nil, fmt.Errorf("%w: batch claims %d records", ErrBadFrame, n)
	}
	if len(b) < 4*n {
		return nil, fmt.Errorf("%w: batch of %d records in %d bytes", ErrBadFrame, n, len(b))
	}
	recs := make([]*record.Record, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: truncated before record %d", ErrBadFrame, i)
		}
		blen := int(binary.LittleEndian.Uint32(b[0:4]))
		b = b[4:]
		if blen > len(b) {
			return nil, fmt.Errorf("%w: record %d claims %d bytes, %d remain", ErrBadFrame, i, blen, len(b))
		}
		rec, err := record.Unmarshal(b[:blen])
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadFrame, i, err)
		}
		recs = append(recs, rec)
		b = b[blen:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrBadFrame, len(b))
	}
	return recs, nil
}

// EncodeRecordBlobs frames already-marshaled records in the UploadBatch
// wire format. The cluster shipper holds WAL entries (which are exactly
// record.MarshalBinary blobs) and must not pay a decode/re-encode round
// trip per shipped record.
//
//ptm:sink transport upload
func EncodeRecordBlobs(blobs [][]byte) ([]byte, error) {
	if len(blobs) == 0 || len(blobs) > MaxBatchRecords {
		return nil, fmt.Errorf("%w: batch of %d records", ErrBadFrame, len(blobs))
	}
	total := 4
	for _, blob := range blobs {
		total += 4 + len(blob)
	}
	if total > MaxFrameSize {
		return nil, fmt.Errorf("%w: batch payload %d bytes", ErrFrameTooLarge, total)
	}
	buf := make([]byte, 4, total)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(blobs)))
	for _, blob := range blobs {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(blob)))
		buf = append(buf, lenBuf[:]...)
		buf = append(buf, blob...)
	}
	return buf, nil
}

// DecodeRecordBatch parses a record batch in the UploadBatch wire format
// (as framed by EncodeRecordBlobs), validating every record.
func DecodeRecordBatch(payload []byte) ([]*record.Record, error) {
	return decodeUploadBatch(payload)
}

// batchResult is the server's answer to an UploadBatch: how many records
// were accepted and, when ok is false, the first per-record failure.
type batchResult struct {
	ok       bool
	accepted uint32
	errMsg   string
}

func (r batchResult) encode() []byte {
	buf := make([]byte, 5+len(r.errMsg))
	if r.ok {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint32(buf[1:5], r.accepted)
	copy(buf[5:], r.errMsg)
	return buf
}

func decodeBatchResult(b []byte) (batchResult, error) {
	if len(b) < 5 {
		return batchResult{}, fmt.Errorf("%w: batch result length %d", ErrBadFrame, len(b))
	}
	return batchResult{
		ok:       b[0] == 1,
		accepted: binary.LittleEndian.Uint32(b[1:5]),
		errMsg:   string(b[5:]),
	}, nil
}

// result is the server's answer to any query or upload: a status byte, an
// estimate (queries only), and an error string for application failures.
type result struct {
	ok       bool
	estimate float64
	errMsg   string
}

func (r result) encode() []byte {
	buf := make([]byte, 9+len(r.errMsg))
	if r.ok {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint64(buf[1:9], math.Float64bits(r.estimate))
	copy(buf[9:], r.errMsg)
	return buf
}

func decodeResult(b []byte) (result, error) {
	if len(b) < 9 {
		return result{}, fmt.Errorf("%w: result length %d", ErrBadFrame, len(b))
	}
	return result{
		ok:       b[0] == 1,
		estimate: math.Float64frombits(binary.LittleEndian.Uint64(b[1:9])),
		errMsg:   string(b[9:]),
	}, nil
}
