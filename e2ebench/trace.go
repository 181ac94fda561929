package main

// Tracing from outside the program. The traced run assembles the same
// stack as the untraced one, but hands the transport server a
// tracedFront instead of the Durable (or cluster Node) and hands the
// central server a tracedStore instead of the raw store.Store. Both
// wrappers time the calls that cross them and record one span per call;
// the generator records spans around its own client calls and around
// its vehicle-encode and RSU-report blocks. Spans stay in memory and
// are written out when the run ends.
//
// A server-side span finds its parent by request identity: the front
// wrapper registers the *record.Record it forwards to Ingest (and the
// period slice it forwards to a query) before calling down, and the
// store wrapper looks the same pointer up. Central passes both through
// unchanged, so the link is exact; a store call with no registered
// parent (replication applying a shipped record, a fetch frame reading
// a location) stays a root. Client spans cannot carry an identity
// across the wire, so client-minus-server self times are computed per
// kind, as totals.

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/transport"
	"ptm/internal/vhash"
)

// kind names what a span timed.
type kind uint8

const (
	kEncode       kind = iota // vhash: Identity.Index over one RSU's vehicles
	kReport                   // rsu: dsrc.Channel.Send over one RSU's reports
	kClientUpload             // generator: one UploadBatch until its ack
	kClientPoint              // generator: one point query
	kClientP2P                // generator: one point-to-point query
	kIngest                   // central: transport.Store.Ingest
	kPoint                    // central: PointPersistent
	kP2P                      // central: PointToPointPersistent
	kFetch                    // cluster: record-fetch frame (router cross-partition p2p)
	kStoreIngest              // store: store.Store.Ingest
	kStoreCollect             // store: store.Store.Collect
	kShip                     // cluster: one ShipNow round over every node
	nKinds
)

var kindNames = [nKinds]string{
	"vhash.encode", "rsu.report", "client.upload", "client.point", "client.p2p",
	"central.ingest", "central.point", "central.p2p", "cluster.fetch",
	"store.ingest", "store.collect", "cluster.ship",
}

func (k kind) String() string { return kindNames[k] }

// span is one timed call. Start and End are nanoseconds since the
// tracer's base; N is the work the span covers (vehicles in an encode
// or report block, records in an upload); Parent indexes the span that
// caused it, -1 when unknown.
type span struct {
	Kind   kind
	Node   int8
	N      int32
	Parent int32
	Start  int64
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans. A nil *tracer records nothing, so the untraced
// run calls the same code with tr == nil.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span //ptm:guardedby mu
	on    bool   //ptm:guardedby mu

	parents sync.Map // request identity -> parent span index (int32)
}

func newTracer() *tracer { return &tracer{base: time.Now(), on: true} }

// at converts a clock reading to the tracer's timeline.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

// add records a span timed by the caller.
func (t *tracer) add(k kind, node int8, n int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.on {
		t.spans = append(t.spans, span{Kind: k, Node: node, N: int32(n), Parent: -1, Start: t.at(start), End: t.at(end)})
	}
	t.mu.Unlock()
}

// begin opens a span and returns its index (-1 when not recording).
func (t *tracer) begin(k kind, node int8, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Kind: k, Node: node, N: 1, Parent: parent, Start: now})
	return int32(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].End = now
	}
	t.mu.Unlock()
}

// restart drops every span recorded so far: the timed section starts.
func (t *tracer) restart() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.on = true
	t.mu.Unlock()
}

// stop ends recording and returns the spans: the timed section is over.
func (t *tracer) stop() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = false
	return t.spans
}

func (t *tracer) link(key any, id int32) {
	if id >= 0 {
		t.parents.Store(key, id)
	}
}

func (t *tracer) unlink(key any) { t.parents.Delete(key) }

func (t *tracer) parentOf(key any) int32 {
	if v, ok := t.parents.Load(key); ok {
		return v.(int32)
	}
	return -1
}

// periodsKey identifies a query by its period slice: the front wrapper
// and the store wrapper see the same backing array.
func periodsKey(periods []record.PeriodID) any {
	if len(periods) == 0 {
		return nil
	}
	return &periods[0]
}

// writeSpans writes spans as CSV, one line per span in recording order
// (the line number less two is the span's index): kind, node, work,
// parent index, request id — the index of the root span of the request
// within one process side, shared by every span it caused — and start
// and end in nanoseconds.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,node,n,parent,req,start_ns,end_ns")
	req := make([]int32, len(spans))
	for i, s := range spans {
		req[i] = int32(i)
		if s.Parent >= 0 && int(s.Parent) < i { // a parent opens before its children
			req[i] = req[s.Parent]
		}
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n", s.Kind, s.Node, s.N, s.Parent, req[i], s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotals aggregates spans per kind: count, work and total duration,
// plus, per kind, the total duration of its direct children by kind.
type spanTotals struct {
	count    [nKinds]int64
	work     [nKinds]int64
	ns       [nKinds]int64
	childNs  [nKinds][nKinds]int64 // [parent kind][child kind]
	childCnt [nKinds][nKinds]int64
}

func totals(spans []span) *spanTotals {
	t := &spanTotals{}
	for _, s := range spans {
		if s.End < s.Start {
			continue // still open when recording stopped
		}
		t.count[s.Kind]++
		t.work[s.Kind] += int64(s.N)
		t.ns[s.Kind] += s.dur()
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			pk := spans[s.Parent].Kind
			t.childNs[pk][s.Kind] += s.dur()
			t.childCnt[pk][s.Kind]++
		}
	}
	return t
}

// mean is the average duration of a kind, in ns (0 when absent).
func (t *spanTotals) mean(k kind) float64 {
	if t.count[k] == 0 {
		return 0
	}
	return float64(t.ns[k]) / float64(t.count[k])
}

// perWork is a kind's total duration per unit of work, in ns.
func (t *spanTotals) perWork(k kind) float64 {
	if t.work[k] == 0 {
		return 0
	}
	return float64(t.ns[k]) / float64(t.work[k])
}

// childMean is the average duration of child spans of kind c under
// parents of kind p, in ns.
func (t *spanTotals) childMean(p, c kind) float64 {
	if t.childCnt[p][c] == 0 {
		return 0
	}
	return float64(t.childNs[p][c]) / float64(t.childCnt[p][c])
}

// selfLinked is a kind's self time per call when its children are
// linked: the parents' total minus their linked children's total,
// divided by the parent count, in ns.
func (t *spanTotals) selfLinked(p kind, children ...kind) float64 {
	if t.count[p] == 0 {
		return 0
	}
	total := t.ns[p]
	for _, c := range children {
		total -= t.childNs[p][c]
	}
	return float64(total) / float64(t.count[p])
}

// selfByKind is the self time per call of the parent kinds when their
// children run on the far side of a connection and cannot be linked:
// the parents' total minus every child-kind span's total, divided by
// the parent count, in ns.
func (t *spanTotals) selfByKind(parents, children []kind) float64 {
	var n, total int64
	for _, p := range parents {
		n += t.count[p]
		total += t.ns[p]
	}
	if n == 0 {
		return 0
	}
	for _, c := range children {
		total -= t.ns[c]
	}
	return float64(total) / float64(n)
}

// tracedFront wraps the transport.Store a transport server fronts
// (central.Durable, or cluster.Node which adds the extension frames).
type tracedFront struct {
	inner transport.Store
	tr    *tracer
	node  int8
}

func (f *tracedFront) Ingest(rec *record.Record) error {
	id := f.tr.begin(kIngest, f.node, -1)
	f.tr.link(rec, id)
	err := f.inner.Ingest(rec)
	f.tr.unlink(rec)
	f.tr.end(id)
	return err
}

func (f *tracedFront) Volume(loc vhash.LocationID, p record.PeriodID) (float64, error) {
	return f.inner.Volume(loc, p)
}

func (f *tracedFront) PointPersistent(loc vhash.LocationID, periods []record.PeriodID) (*core.PointResult, error) {
	id := f.tr.begin(kPoint, f.node, -1)
	key := periodsKey(periods)
	f.tr.link(key, id)
	res, err := f.inner.PointPersistent(loc, periods)
	f.tr.unlink(key)
	f.tr.end(id)
	return res, err
}

func (f *tracedFront) PointToPointPersistent(a, b vhash.LocationID, periods []record.PeriodID) (*core.PointToPointResult, error) {
	id := f.tr.begin(kP2P, f.node, -1)
	key := periodsKey(periods)
	f.tr.link(key, id)
	res, err := f.inner.PointToPointPersistent(a, b, periods)
	f.tr.unlink(key)
	f.tr.end(id)
	return res, err
}

func (f *tracedFront) Locations() []vhash.LocationID { return f.inner.Locations() }

func (f *tracedFront) Periods(loc vhash.LocationID) []record.PeriodID { return f.inner.Periods(loc) }

// HandleFrame forwards extension frames when the wrapped store has
// them (a plain Durable has none, and the server then answers the frame
// as unknown exactly as it would unwrapped), timing record fetches.
func (f *tracedFront) HandleFrame(t transport.MsgType, payload []byte) (transport.MsgType, []byte, bool) {
	ext, ok := f.inner.(transport.Extension)
	if !ok {
		return 0, nil, false
	}
	id := int32(-1)
	if t == transport.MsgFetchRecords {
		id = f.tr.begin(kFetch, f.node, -1)
	}
	rt, resp, handled := ext.HandleFrame(t, payload)
	f.tr.end(id)
	return rt, resp, handled
}

// tracedStore wraps the store.Store the central server runs on.
type tracedStore struct {
	store.Store
	tr   *tracer
	node int8
}

func (s *tracedStore) Ingest(rec *record.Record) (int, error) {
	id := s.tr.begin(kStoreIngest, s.node, s.tr.parentOf(rec))
	prior, err := s.Store.Ingest(rec)
	s.tr.end(id)
	return prior, err
}

func (s *tracedStore) Collect(loc vhash.LocationID, periods []record.PeriodID) ([]*record.Record, uint64, func(), error) {
	parent := int32(-1)
	if key := periodsKey(periods); key != nil {
		parent = s.tr.parentOf(key)
	}
	id := s.tr.begin(kStoreCollect, s.node, parent)
	recs, epoch, unpin, err := s.Store.Collect(loc, periods)
	s.tr.end(id)
	return recs, epoch, unpin, err
}
