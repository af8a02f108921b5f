package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"priste/internal/api"
	"priste/internal/rpc"
	"priste/internal/server"
	"priste/internal/store"
)

// backend is one pristed instance in the benchmark's process: a
// server.Server over a durable FileStore (no fsync) with an HTTP and a
// binary RPC front end on loopback, wired as cmd/pristed wires them. In
// the traced run the store and the service are wrapped (see trace.go).
// stop and start restart it on the same store and addresses.
type backend struct {
	cfg      server.Config
	dir      string
	rec      *recorder
	httpAddr string
	rpcAddr  string

	srv     *server.Server
	svc     api.Service
	prev    api.Stats // counters of the instances stopped so far
	httpSrv *http.Server
	rpcSrv  *rpc.Server
	wg      sync.WaitGroup
}

// newBackend starts a backend on fresh loopback ports.
func newBackend(cfg server.Config, dir string, rec *recorder) (*backend, error) {
	b := &backend{cfg: cfg, dir: dir, rec: rec, httpAddr: "127.0.0.1:0", rpcAddr: "127.0.0.1:0"}
	if err := b.start(); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *backend) start() error {
	fs, err := store.Open(b.dir, false)
	if err != nil {
		return err
	}
	cfg := b.cfg
	cfg.Store = fs
	if b.rec != nil {
		cfg.Store = &tracedStore{FileStore: fs, rec: b.rec}
	}
	srv, err := server.New(cfg)
	if err != nil {
		_ = fs.Close()
		return err
	}
	b.srv = srv
	b.svc = srv
	handler := srv.Handler()
	if b.rec != nil {
		ts := newTracedService(srv, b.rec)
		b.svc = ts
		// The traced HTTP codec runs over the wrapper; the routes that
		// need more than api.Service stay on the server's own handler.
		mux := http.NewServeMux()
		server.RegisterAPIRoutes(mux, ts, nil)
		mux.Handle("POST /v1/sessions/{id}/stream", handler)
		mux.Handle("GET /v1/sessions/{id}/stream", handler)
		handler = server.TraceHandler(mux, nil)
	}
	httpLis, err := net.Listen("tcp", b.httpAddr)
	if err != nil {
		srv.Close()
		return err
	}
	rpcLis, err := net.Listen("tcp", b.rpcAddr)
	if err != nil {
		httpLis.Close()
		srv.Close()
		return err
	}
	b.httpAddr, b.rpcAddr = httpLis.Addr().String(), rpcLis.Addr().String()
	b.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	rs := rpc.NewServer(b.svc)
	rs.Observe = srv.ObserveRPC
	rs.ObserveStep = srv.ObserveRPCStep
	rs.OnStreamOpen = srv.ObserveStreamOpen
	rs.OnStreamClose = srv.ObserveStreamClose
	rs.ObserveStreamWindow = srv.ObserveStreamWindow
	rs.ObserveStreamAcks = srv.ObserveStreamAcks
	b.rpcSrv = rs
	b.wg.Add(2)
	go func() {
		defer b.wg.Done()
		_ = b.httpSrv.Serve(httpLis)
	}()
	go func() {
		defer b.wg.Done()
		_ = rs.Serve(rpcLis)
	}()
	return nil
}

// stop shuts the backend down as pristed does on SIGTERM: listeners
// first, then a drain of queued steps with final snapshots and the
// persisted certified-release cache.
func (b *backend) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.httpSrv.Shutdown(ctx)
	if cerr := b.rpcSrv.Close(); err == nil {
		err = cerr
	}
	b.wg.Wait()
	b.prev = mergeStats(b.prev, b.srv.Stats())
	if serr := b.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// halt stops the backend abruptly, as a killed process stops: no final
// snapshots, so a restart replays every session's WAL. The WAL writes
// sit in the page cache, which the benchmark's process outlives.
func (b *backend) halt() error {
	err := b.httpSrv.Close()
	if cerr := b.rpcSrv.Close(); err == nil {
		err = cerr
	}
	b.wg.Wait()
	b.prev = mergeStats(b.prev, b.srv.Stats())
	b.srv.Close()
	return err
}

// stats returns the server counters summed over every instance the
// backend has run.
func (b *backend) stats() api.Stats { return mergeStats(b.prev, b.srv.Stats()) }

// clients holds one RPC client (one multiplexed connection) and one HTTP
// client restricted to a single keep-alive connection.
type clients struct {
	rpc   *rpc.Client
	http  *server.Client
	httpT *http.Transport
}

func newClients(b *backend) (*clients, error) {
	rc, err := rpc.Dial(b.rpcAddr)
	if err != nil {
		return nil, err
	}
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	hc := server.NewClient("http://"+b.httpAddr, &http.Client{Transport: t})
	return &clients{rpc: rc, http: hc, httpT: t}, nil
}

func (c *clients) close() {
	_ = c.rpc.Close()
	c.httpT.CloseIdleConnections()
}

// reconnect drops the HTTP client's idle connection after a restart of
// its server; the RPC client redials by itself.
func (c *clients) reconnect() { c.httpT.CloseIdleConnections() }
