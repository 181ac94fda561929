package main

// The system under test, assembled in-process from the program's public
// constructors and served over loopback TCP. The traced run inserts the
// tracing wrappers at the two seams the program is assembled from: the
// store.Store handed to central.NewServerWithStore and the
// transport.Store handed to transport.NewServer.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"ptm/internal/central"
	"ptm/internal/cluster"
	"ptm/internal/cluster/router"
	"ptm/internal/store"
	"ptm/internal/transport"
	"ptm/internal/wal"
)

const dialTimeout = 5 * time.Second

// walOptions is the flush policy of every WAL in the benchmark.
var walOptions = wal.Options{Sync: wal.SyncAlways}

// server is one Durable (or cluster Node) served on a loopback port.
type server struct {
	dir     string
	durable *central.Durable
	node    *cluster.Node // nil for a standalone server
	tiered  *store.Tiered // nil unless the store is tiered
	srv     *transport.Server
	addr    string
	done    chan error
}

// serverOpts selects the store and role of a server.
type serverOpts struct {
	tiered *store.TieredOptions // nil: store.Mem
	nodeID string               // "": standalone Durable
	index  int8                 // node index in span records
}

func startServer(dir string, o serverOpts, tr *tracer) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &server{dir: dir}
	var st store.Store
	if o.tiered != nil {
		t, err := store.OpenTiered(filepath.Join(dir, "tier"), *o.tiered)
		if err != nil {
			return nil, err
		}
		s.tiered, st = t, t
	} else {
		m, err := store.NewMem(central.DefaultShards)
		if err != nil {
			return nil, err
		}
		st = m
	}
	if tr != nil {
		st = &tracedStore{Store: st, tr: tr, node: o.index}
	}
	cs, err := central.NewServerWithStore(reprBits, st)
	if err != nil {
		return nil, err
	}
	if s.durable, err = central.OpenDurableServer(filepath.Join(dir, "wal"), cs, walOptions, 0); err != nil {
		return nil, errors.Join(err, cs.CloseStore())
	}
	var front transport.Store = s.durable
	if o.nodeID != "" {
		s.node, err = cluster.NewNode(s.durable, cluster.Config{
			ID: o.nodeID, RingPath: filepath.Join(dir, "ring.json"), DialTimeout: dialTimeout,
		})
		if err != nil {
			return nil, errors.Join(err, s.closeStore())
		}
		front = s.node
	}
	if tr != nil {
		front = &tracedFront{inner: front, tr: tr, node: o.index}
	}
	if s.srv, err = transport.NewServer(front, nil); err != nil {
		return nil, errors.Join(err, s.closeStore())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.closeStore())
	}
	s.addr = ln.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stopServing closes the listener and every connection and waits for
// the accept loop; the store stays open.
func (s *server) stopServing() error {
	if s.srv == nil {
		return nil
	}
	var errs []error
	if s.node != nil {
		errs = append(errs, s.node.Close())
	}
	errs = append(errs, s.srv.Close())
	if err := <-s.done; err != nil && !errors.Is(err, transport.ErrServerClosed) {
		errs = append(errs, err)
	}
	s.srv = nil
	return errors.Join(errs...)
}

func (s *server) closeStore() error {
	return errors.Join(s.durable.Close(), s.durable.CloseStore())
}

// close stops serving and closes the WAL and the store.
func (s *server) close() error {
	return errors.Join(s.stopServing(), s.closeStore())
}

// walBytes is the size of the server's WAL directory.
func (s *server) walBytes() (int64, error) { return dirBytes(filepath.Join(s.dir, "wal")) }

// dial opens n client connections to a server.
func dial(addr string, n int) ([]*transport.Client, error) {
	var cs []*transport.Client
	for i := 0; i < n; i++ {
		c, err := transport.Dial(addr, dialTimeout)
		if err != nil {
			closeClients(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeClients(cs []*transport.Client) error {
	var errs []error
	for _, c := range cs {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}

// ring is a cluster of servers with two routers: one for the RSUs'
// uploads and one for the dashboard's queries, as two independent
// clients would have, so neither queues behind the other on a shared
// connection.
type ring struct {
	servers []*server
	byID    map[string]*server
	writer  *router.Router
	reader  *router.Router
	layout  *cluster.Ring
}

// startRing starts n cluster nodes, pushes an all-Up ring with the given
// replication factor to each over the wire, and dials the two routers at
// the first node (seed discovery finds the rest). Nodes run with their
// background shippers off; the workload drives ShipNow.
func startRing(dir string, n, replicas int, tr *tracer) (*ring, error) {
	r := &ring{byID: make(map[string]*server)}
	layout := &cluster.Ring{Epoch: 1, Replicas: replicas, VNodes: cluster.DefaultVNodes}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		s, err := startServer(filepath.Join(dir, id), serverOpts{nodeID: id, index: int8(i)}, tr)
		if err != nil {
			return nil, errors.Join(err, r.close())
		}
		r.servers = append(r.servers, s)
		r.byID[id] = s
		layout.Members = append(layout.Members, cluster.Member{ID: id, Addr: s.addr, State: cluster.StateUp})
	}
	layout.SortMembers()
	enc, err := cluster.EncodeRing(layout)
	if err != nil {
		return nil, errors.Join(err, r.close())
	}
	for _, s := range r.servers {
		if err := pushRing(s.addr, enc); err != nil {
			return nil, errors.Join(err, r.close())
		}
	}
	r.layout = layout
	if r.writer, err = router.Dial([]string{r.servers[0].addr}, dialTimeout); err != nil {
		return nil, errors.Join(err, r.close())
	}
	if r.reader, err = router.Dial([]string{r.servers[0].addr}, dialTimeout); err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

func pushRing(addr string, enc []byte) error {
	c, err := transport.Dial(addr, dialTimeout)
	if err != nil {
		return err
	}
	resp, err := c.Call(transport.MsgRingSet, enc, transport.MsgRing)
	if err == nil {
		_, err = cluster.DecodeResponse(resp)
	}
	return errors.Join(err, c.Close())
}

// shipRound runs one replication round on every node.
func (r *ring) shipRound() error {
	var errs []error
	for _, s := range r.servers {
		errs = append(errs, s.node.ShipNow())
	}
	return errors.Join(errs...)
}

func (r *ring) close() error {
	var errs []error
	for _, rt := range []*router.Router{r.writer, r.reader} {
		if rt != nil {
			errs = append(errs, rt.Close())
		}
	}
	for _, s := range r.servers {
		errs = append(errs, s.close())
	}
	return errors.Join(errs...)
}
