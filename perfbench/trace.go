package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"priste/internal/api"
	"priste/internal/obs"
	"priste/internal/store"
)

// spanKind names a layer boundary the traced run records.
type spanKind uint8

const (
	kClientRPCUnary spanKind = iota
	kClientRPCStream
	kClientHTTPUnary
	kClientHTTPStream
	kServiceStep
	kServiceCreate
	kServiceDelete
	kServiceExport
	kServiceImport
	kStoreAppend
	kStoreCreate
	kStoreDelete
	kStoreLoad
	kStoreSnapshot
	kStoreImport
	kRouterStep
	kBackendStep
	kBackendExport
	kBackendImport
	kBackendDelete
	kRouterDrain
	kRouterUndrain
	numKinds
)

var kindNames = [numKinds]string{
	"client.rpc_unary", "client.rpc_stream", "client.http_unary", "client.http_stream",
	"service.step", "service.create", "service.delete", "service.export", "service.import",
	"store.append", "store.create", "store.delete", "store.load", "store.snapshot", "store.import",
	"router.step", "backend.step", "backend.export", "backend.import", "backend.delete",
	"router.drain", "router.undrain",
}

// span is one recorded interval. Spans of one request share trace (the
// trace ID the transports carry); key links a WAL append to the service
// step that committed it, by session and timestamp.
type span struct {
	trace      uint64
	key        uint64
	start, end int64
	kind       spanKind
}

// recorder keeps spans in memory for the traced run. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	epoch  time.Time
	traces atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

func (r *recorder) add(kind spanKind, trace, key uint64, start int64) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{trace: trace, key: key, start: start, end: end, kind: kind})
	r.mu.Unlock()
}

// reset drops the spans recorded so far: the per-layer figures cover
// the timed phases and what follows them, not the set-ups.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// withTrace tags ctx with a fresh trace ID, which both transports carry
// to the server; untraced runs leave ctx alone.
func (r *recorder) withTrace(ctx context.Context) (context.Context, uint64) {
	if r == nil {
		return ctx, 0
	}
	id := r.traces.Add(1)
	return obs.WithTrace(ctx, id), id
}

// stepKey identifies one committed step of one session.
func stepKey(id string, t int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return h.Sum64() ^ (uint64(t)+1)*0x9e3779b97f4a7c15
}

// layerTimes is the per-kind aggregate of a traced run: span count, mean
// duration and mean self time in microseconds.
type layerTimes struct {
	count [numKinds]int64
	dur   [numKinds]float64
	self  [numKinds]float64
}

func (lt *layerTimes) meanUS(k spanKind) float64 {
	if lt.count[k] == 0 {
		return 0
	}
	return lt.dur[k] / float64(lt.count[k])
}

func (lt *layerTimes) selfUS(k spanKind) float64 {
	if lt.count[k] == 0 {
		return 0
	}
	return lt.self[k] / float64(lt.count[k])
}

// parentKinds lists, for each kind, the kinds its parent may have within
// the same trace. A step's service span sits under the client span that
// sent it (or the router's backend call); a backend call under the
// router step. Store appends are linked by stepKey instead.
var parentKinds = map[spanKind][]spanKind{
	kServiceStep: {kClientRPCUnary, kClientHTTPUnary, kBackendStep},
	kBackendStep: {kRouterStep},
}

// analyze resolves every span's parent, computes self times (a span's
// duration minus its children's) and aggregates them per kind. It also
// writes the spans, with their resolved parents, to path as CSV.
func (r *recorder) analyze(path string) (layerTimes, error) {
	var lt layerTimes
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	type traceKind struct {
		trace uint64
		kind  spanKind
	}
	byTrace := make(map[traceKind]int)
	stepByKey := make(map[uint64]int)
	for i, s := range spans {
		if s.trace != 0 {
			if _, dup := byTrace[traceKind{s.trace, s.kind}]; !dup {
				byTrace[traceKind{s.trace, s.kind}] = i
			}
		}
		if s.kind == kServiceStep && s.key != 0 {
			stepByKey[s.key] = i
		}
	}
	parent := make([]int, len(spans))
	child := make([]int64, len(spans))
	for i, s := range spans {
		parent[i] = -1
		if s.kind == kStoreAppend {
			if p, ok := stepByKey[s.key]; ok {
				parent[i] = p
			}
		} else if kinds, ok := parentKinds[s.kind]; ok && s.trace != 0 {
			for _, pk := range kinds {
				if p, ok := byTrace[traceKind{s.trace, pk}]; ok && p != i {
					parent[i] = p
					break
				}
			}
		}
		if parent[i] >= 0 {
			child[parent[i]] += s.end - s.start
		}
	}
	for i, s := range spans {
		d := float64(s.end-s.start) / 1e3
		lt.count[s.kind]++
		lt.dur[s.kind] += d
		lt.self[s.kind] += d - float64(child[i])/1e3
	}
	if err := writeSpans(path, spans, parent); err != nil {
		return lt, err
	}
	return lt, nil
}

// writeSpans writes one CSV row per span: id, trace, parent id (-1 for
// roots), name and start/end in nanoseconds since the run began.
func writeSpans(path string, spans []span, parent []int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id,trace,parent,name,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.trace, parent[i], kindNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedService is the api.Service wrapper placed in front of a server's
// transports in the traced run. It forwards api.AsyncStepper, so the RPC
// front end keeps its pipelined step path.
type tracedService struct {
	api.Service
	async api.AsyncStepper
	rec   *recorder
}

func newTracedService(svc api.Service, rec *recorder) *tracedService {
	t := &tracedService{Service: svc, rec: rec}
	t.async, _ = svc.(api.AsyncStepper)
	return t
}

var (
	_ api.Service      = (*tracedService)(nil)
	_ api.AsyncStepper = (*tracedService)(nil)
)

func (t *tracedService) Step(ctx context.Context, id string, loc int) (api.StepResponse, error) {
	start := t.rec.now()
	resp, err := t.Service.Step(ctx, id, loc)
	var key uint64
	if err == nil {
		key = stepKey(id, resp.T)
	}
	t.rec.add(kServiceStep, obs.TraceFrom(ctx), key, start)
	return resp, err
}

// StepAsync times a step from its enqueue to its outcome. The outcome is
// forwarded by one goroutine per step, which ends when the server
// delivers the outcome (it always does, with an error if the session
// closes).
func (t *tracedService) StepAsync(ctx context.Context, id string, loc int) (<-chan api.StepOutcome, error) {
	start := t.rec.now()
	trace := obs.TraceFrom(ctx)
	ch, err := t.async.StepAsync(ctx, id, loc)
	if err != nil {
		t.rec.add(kServiceStep, trace, 0, start)
		return nil, err
	}
	out := make(chan api.StepOutcome, 1)
	go func() {
		o := <-ch
		var key uint64
		if o.Err == nil {
			key = stepKey(id, o.Resp.T)
		}
		t.rec.add(kServiceStep, trace, key, start)
		out <- o
	}()
	return out, nil
}

func (t *tracedService) CreateSession(req api.CreateSessionRequest) (api.SessionInfo, error) {
	start := t.rec.now()
	info, err := t.Service.CreateSession(req)
	t.rec.add(kServiceCreate, 0, 0, start)
	return info, err
}

func (t *tracedService) DeleteSession(id string) error {
	start := t.rec.now()
	err := t.Service.DeleteSession(id)
	t.rec.add(kServiceDelete, 0, 0, start)
	return err
}

func (t *tracedService) ExportSession(ctx context.Context, id string) (api.SessionExport, error) {
	start := t.rec.now()
	exp, err := t.Service.ExportSession(ctx, id)
	t.rec.add(kServiceExport, obs.TraceFrom(ctx), 0, start)
	return exp, err
}

func (t *tracedService) ImportSession(exp api.SessionExport) (api.SessionInfo, error) {
	start := t.rec.now()
	info, err := t.Service.ImportSession(exp)
	t.rec.add(kServiceImport, 0, 0, start)
	return info, err
}

// tracedStore wraps the durable store. It embeds *store.FileStore so the
// server still finds the optional SetSyncObserver/SetLogger hooks.
type tracedStore struct {
	*store.FileStore
	rec *recorder
}

var _ store.Store = (*tracedStore)(nil)

func (s *tracedStore) AppendStep(id string, gen uint64, rec store.StepRecord) error {
	start := s.rec.now()
	err := s.FileStore.AppendStep(id, gen, rec)
	s.rec.add(kStoreAppend, 0, stepKey(id, rec.T), start)
	return err
}

func (s *tracedStore) CreateSession(meta store.SessionMeta) (uint64, error) {
	start := s.rec.now()
	gen, err := s.FileStore.CreateSession(meta)
	s.rec.add(kStoreCreate, 0, 0, start)
	return gen, err
}

func (s *tracedStore) DeleteSession(id string) error {
	start := s.rec.now()
	err := s.FileStore.DeleteSession(id)
	s.rec.add(kStoreDelete, 0, 0, start)
	return err
}

func (s *tracedStore) LoadSessions() ([]store.SessionState, error) {
	start := s.rec.now()
	st, err := s.FileStore.LoadSessions()
	s.rec.add(kStoreLoad, 0, 0, start)
	return st, err
}

func (s *tracedStore) WriteSnapshot(state store.SessionState, gen uint64) error {
	start := s.rec.now()
	err := s.FileStore.WriteSnapshot(state, gen)
	s.rec.add(kStoreSnapshot, 0, 0, start)
	return err
}

func (s *tracedStore) ImportSession(state store.SessionState) (uint64, error) {
	start := s.rec.now()
	gen, err := s.FileStore.ImportSession(state)
	s.rec.add(kStoreImport, 0, 0, start)
	return gen, err
}

// tracedClient wraps one of the router's backend clients.
type tracedClient struct {
	api.Client
	rec *recorder
}

func (c *tracedClient) Step(ctx context.Context, id string, loc int) (api.StepResponse, error) {
	start := c.rec.now()
	resp, err := c.Client.Step(ctx, id, loc)
	c.rec.add(kBackendStep, obs.TraceFrom(ctx), 0, start)
	return resp, err
}

func (c *tracedClient) ExportSession(ctx context.Context, id string) (api.SessionExport, error) {
	start := c.rec.now()
	exp, err := c.Client.ExportSession(ctx, id)
	c.rec.add(kBackendExport, obs.TraceFrom(ctx), 0, start)
	return exp, err
}

func (c *tracedClient) ImportSession(ctx context.Context, exp api.SessionExport) (api.SessionInfo, error) {
	start := c.rec.now()
	info, err := c.Client.ImportSession(ctx, exp)
	c.rec.add(kBackendImport, obs.TraceFrom(ctx), 0, start)
	return info, err
}

func (c *tracedClient) DeleteSession(ctx context.Context, id string) error {
	start := c.rec.now()
	err := c.Client.DeleteSession(ctx, id)
	c.rec.add(kBackendDelete, obs.TraceFrom(ctx), 0, start)
	return err
}
