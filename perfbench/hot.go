package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"priste/internal/api"
	"priste/internal/server"
)

// The hot workload: short-lived users on the 6×6 benchmark world whose
// pings follow a few shared (seed, trajectory) pairs, so after warm-up
// every release condition is a certified-release cache hit and the
// engine costs tens of microseconds. Transport codecs, queueing, session
// create/delete and the WAL append dominate; the solver is bypassed.
const (
	hotSide     = 6
	hotEvent    = "0-5@2-4"
	hotPairs    = 32
	hotPings    = 8
	hotRate     = 2000.0 // open-loop pings per second
	hotExports  = 8      // every hotExports-th user exports its session before deleting it
	hotKeep     = 64     // exports kept for the Restore check
	hotResident = 512    // live sessions drained and recovered
	hotSetups   = 5
	hotRounds   = 4 // open/closed rounds, each followed by a drain sample
	hotRestarts = 9 // closing drain and recovery cycles
	// hotCorpus seeds the shared (seed, trajectory) pairs. They are the
	// same in every run: serving cost does not depend on their content,
	// while 32 pairs drawn per run swing the utility figures by ±10% from
	// seed to seed. The run seed picks the user ids and the order in
	// which users take the pairs.
	hotCorpus = 20190409
)

// The four step ingress paths.
const (
	pathRPCUnary = iota
	pathRPCStream
	pathHTTPUnary
	pathHTTPStream
	numPaths
)

var (
	pathNames = [numPaths]string{"rpc_unary", "rpc_stream", "http_unary", "http_stream"}
	pathKinds = [numPaths]spanKind{kClientRPCUnary, kClientRPCStream, kClientHTTPUnary, kClientHTTPStream}
)

type sharedPair struct {
	seed  int64
	traj  []int
	canon []release // the releases of the pair's first served session
}

type hotRun struct {
	e     *env
	d     *deployment
	pairs []sharedPair
	order []int // user u takes pair order[u % len(order)]
	be    *backend
	cl    *clients
	rec   *recorder
	ver   *verifier
	label string

	next     atomic.Int64
	mu       sync.Mutex
	exports  []api.SessionExport
	users    []int   // users served per pair
	checkUS  float64 // sum of StepResponse.CheckMicros
	checkN   int64
	openLate latencies
}

func runHot(e *env, traced bool) (map[string]metric, error) {
	d, err := newDeployment(hotSide, []string{hotEvent})
	if err != nil {
		return nil, err
	}
	// Start cells are stratified: distinct cells, in the corpus order.
	starts := rand.New(rand.NewSource(hotCorpus)).Perm(d.g.States())
	pairs := make([]sharedPair, hotPairs)
	for p := range pairs {
		pairs[p].seed = splitmix(hotCorpus, 1, int64(p))
		pairs[p].traj = d.trajectory(splitmix(hotCorpus, 2, int64(p)), starts[p%len(starts)], hotPings)
	}
	order := rand.New(rand.NewSource(e.seed)).Perm(hotPairs)
	base, err := hotPass(e, d, pairs, order, nil, "hot")
	if err != nil {
		return nil, err
	}
	if !traced {
		return base.endToEnd(), nil
	}
	rec := newRecorder()
	tr, err := hotPass(e, d, pairs, order, rec, "hot-traced")
	if err != nil {
		return nil, err
	}
	return perLayer(e, "hot", base, tr, rec)
}

// hotPass sets the deployment up hotSetups times (keeping the last),
// creates the resident users, then alternates hotRounds open-loop and
// closed-loop phases, taking a drain sample after each round, so every
// metric samples the whole run rather than one stretch of it. It checks
// the releases and ends with the remaining drain and recovery cycles.
func hotPass(e *env, d *deployment, pairs []sharedPair, order []int, rec *recorder, label string) (*passResult, error) {
	res := &passResult{}
	var h *hotRun
	for i := 0; i < hotSetups; i++ {
		if h != nil {
			h.cl.close()
			if err := h.be.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		h, err = newHotRun(e, d, pairs, order, rec, fmt.Sprintf("%s-%d-%x", label, i, uint32(e.seed)))
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	defer func() {
		h.cl.close()
		_ = h.be.stop()
	}()

	// Resident users stay live through the timed phases; drain and
	// recovery move them.
	rph := e.ledger.phase(label + "/resident")
	resident := make([]*session, hotResident)
	for i := range resident {
		u := h.next.Add(1)
		h.user(context.Background(), u, pathRPCUnary, nil, rph, hotPings, true)
		pair := h.pairs[h.pairOf(u)]
		resident[i] = &session{id: h.userID(u), seed: pair.seed, traj: pair.traj, served: pair.canon}
	}

	rec.reset()
	stats0 := h.be.stats()
	openLat := &latencies{}
	var rates []float64
	var closedSteps int64
	var mallocs, pauseNs uint64
	var cpu float64
	segment := e.seconds / 2 / hotRounds
	for r := 0; r < hotRounds; r++ {
		ms0, cpu0 := readMem(), cpuSeconds()
		h.openLoop(openLat, segment)
		n, rs := h.closedLoop(segment)
		ms1 := readMem()
		cpu += cpuSeconds() - cpu0
		mallocs += ms1.Mallocs - ms0.Mallocs
		pauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		closedSteps += n
		rates = append(rates, rs...)
		res.drain = append(res.drain, drainExports(e, h.cl.rpc, resident, label+"/drain"))
	}
	stats1 := h.be.stats()

	lat := openLat.values()
	res.p50 = windowQuantile(lat, 0.50, 1000)
	res.p99 = windowQuantile(lat, 0.99, 1000)
	res.throughput = median(rates)
	res.steps = int64(len(lat)) + closedSteps
	res.allocsPerStep = float64(mallocs) / float64(res.steps)
	res.cpuUS = cpu * 1e6 / float64(res.steps)
	res.gcPauseMS = float64(pauseNs) / 1e6
	res.lateMS = quantile(h.openLate.values(), 0.99)
	res.stats0, res.stats1 = stats0, stats1
	res.checkUS = h.checkUS / float64(max(h.checkN, 1))

	h.verify()
	res.restoreUS = h.ver.restoreUSPerTag()
	var runs [][]release
	var trajs [][]int
	for _, p := range pairs {
		runs = append(runs, p.canon)
		trajs = append(trajs, p.traj)
	}
	res.utility(d, runs, trajs)
	res.sessions = h.driverSessions()
	res.heapMB = liveHeapMB()

	if err := drainAndRecover(e, h.be, h.cl, resident, label, hotRestarts, 1, res); err != nil {
		return nil, err
	}
	return res, nil
}

func (h *hotRun) userID(u int64) string { return fmt.Sprintf("%s-u%d", h.label, u) }

func (h *hotRun) pairOf(u int64) int { return h.order[u%int64(len(h.order))] }

// newHotRun starts the server and its clients and warms the
// certified-release cache: every pair is served once per ingress path,
// the first (RPC unary) session fixing the pair's canonical releases.
func newHotRun(e *env, d *deployment, pairs []sharedPair, order []int, rec *recorder, label string) (*hotRun, error) {
	cfg := d.serverConfig()
	be, err := newBackend(cfg, filepath.Join(e.work, label), rec)
	if err != nil {
		return nil, err
	}
	cl, err := newClients(be)
	if err != nil {
		_ = be.stop()
		return nil, err
	}
	h := &hotRun{e: e, d: d, pairs: pairs, order: order, be: be, cl: cl, rec: rec, ver: newVerifier(d), label: label, users: make([]int, len(pairs))}
	// The first set-up's RPC unary users fix the canonical releases; every
	// later user, set-up and pass is checked against them.
	ph := e.ledger.phase("hot/warmup")
	ctx := context.Background()
	for path := 0; path < numPaths; path++ {
		for p := range pairs {
			h.user(ctx, int64(path*len(pairs)+p), path, nil, ph, hotPings, false)
		}
	}
	h.next.Store(int64(numPaths * len(pairs)))
	return h, nil
}

// user is one user's life: create a session, send the pings of its
// pair's trajectory back to back over one ingress path, export the
// session if sampled, and delete it unless it stays resident. Each ping
// is due as soon as the previous reply arrived and is timed from then.
// Every release is checked against the pair's canonical releases. It
// returns the pings served.
func (h *hotRun) user(ctx context.Context, u int64, path int, lat *latencies, ph *phaseCount, pings int, resident bool) int {
	p := h.pairOf(u)
	pair := &h.pairs[p]
	id := h.userID(u)
	var c api.Client = h.cl.rpc
	if path == pathHTTPUnary || path == pathHTTPStream {
		c = h.cl.http
	}
	seed := pair.seed
	_, err := c.CreateSession(ctx, api.CreateSessionRequest{ID: id, Seed: &seed})
	ph.record(err)
	if err != nil {
		h.e.gate.fail("hot: create %s: %v", id, err)
		return 0
	}
	var st api.StepStream
	sctx := ctx
	var trace uint64
	if path == pathRPCStream || path == pathHTTPStream {
		sctx, trace = h.rec.withTrace(ctx)
		st, err = c.(api.StreamClient).StreamSteps(sctx, id, hotPings)
		ph.record(err)
		if err != nil {
			h.e.gate.fail("hot: open stream %s: %v", id, err)
			return 0
		}
	}
	first := pair.canon == nil
	served := make([]release, 0, pings)
	n := 0
	for i := 0; i < pings; i++ {
		dueAt := time.Now()
		var resp api.StepResponse
		t0 := h.rec.now()
		if st != nil {
			if err = st.Send(pair.traj[i]); err == nil {
				resp, err = st.Recv()
			}
		} else {
			var tctx context.Context
			tctx, trace = h.rec.withTrace(ctx)
			resp, err = c.Step(tctx, id, pair.traj[i])
		}
		h.rec.add(pathKinds[path], trace, 0, t0)
		ph.record(err)
		if err != nil {
			h.e.gate.fail("hot: %s step %d of %s: %v", pathNames[path], i, id, err)
			break
		}
		if lat != nil {
			lat.add(msSince(dueAt))
		}
		n++
		r := releaseOf(resp)
		served = append(served, r)
		if resp.T != i || (resp.Alpha == 0) != resp.Uniform {
			h.e.gate.fail("hot: %s: release %d reports t=%d uniform=%v alpha=%g", id, i, resp.T, resp.Uniform, resp.Alpha)
		} else if !first && r != pair.canon[i] {
			h.e.gate.fail("hot: %s over %s released %v at t=%d, pair releases %v", id, pathNames[path], r, i, pair.canon[i])
		}
		h.mu.Lock()
		h.checkUS += resp.CheckMicros
		h.checkN++
		h.mu.Unlock()
	}
	if st != nil {
		_ = st.CloseSend()
		for {
			if _, err := st.Recv(); err != nil {
				if err != io.EOF {
					h.e.gate.fail("hot: closing stream %s: %v", id, err)
				}
				break
			}
		}
		_ = st.Close()
	}
	if first && n == hotPings {
		pair.canon = served
	}
	if (first || u%hotExports == 0) && n == pings {
		exp, err := c.ExportSession(ctx, id)
		ph.record(err)
		if err != nil {
			h.e.gate.fail("hot: export %s: %v", id, err)
		} else {
			ok := len(served) == len(exp.Tags)
			for t := 0; ok && t < len(served); t++ {
				ok = exp.Tags[t].Obs == served[t].obs && exp.Tags[t].AlphaBits == served[t].alphaBits
			}
			if !ok {
				h.e.gate.fail("hot: export of %s differs from its served releases", id)
			}
			h.mu.Lock()
			if first || len(h.exports) < hotKeep {
				h.exports = append(h.exports, exp)
			}
			h.mu.Unlock()
		}
	}
	if !resident {
		err = c.DeleteSession(ctx, id)
		ph.record(err)
		if err != nil {
			h.e.gate.fail("hot: delete %s: %v", id, err)
		}
	}
	if n == hotPings {
		h.mu.Lock()
		h.users[p]++
		h.mu.Unlock()
	}
	return n
}

// openLoop offers hotRate pings per second for the given time: users
// arrive on a fixed schedule whatever the server's speed, each sending
// its pings back to back. The generator's lateness in starting users is
// recorded.
func (h *hotRun) openLoop(lat *latencies, seconds float64) {
	ph := h.e.ledger.phase(h.label + "/open_loop")
	interval := time.Duration(float64(time.Second) * hotPings / hotRate)
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for k := 0; ; k++ {
		arrive := start.Add(time.Duration(k) * interval)
		if arrive.After(end) {
			break
		}
		if d := time.Until(arrive); d > 0 {
			time.Sleep(d)
		}
		h.openLate.add(msSince(arrive))
		u := h.next.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.user(context.Background(), u, int(u%numPaths), lat, ph, hotPings, false)
		}()
	}
	wg.Wait()
	ph.note = fmt.Sprintf("rate=%g/s late_p99_ms=%.3f", hotRate, quantile(h.openLate.values(), 0.99))
}

// closedLoop runs nproc clients, each serving users back to back, and
// returns the pings served and the ping rate of every half-second
// window; their median is the throughput, which a stall of the disk or
// the host moves for one window rather than for the run.
func (h *hotRun) closedLoop(seconds float64) (int64, []float64) {
	ph := h.e.ledger.phase(h.label + "/closed_loop")
	var steps atomic.Int64
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < h.e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				u := h.next.Add(1)
				steps.Add(int64(h.user(context.Background(), u, int(u%numPaths), nil, ph, hotPings, false)))
			}
		}()
	}
	const window = 500 * time.Millisecond
	var rates []float64
	last, lastAt := int64(0), time.Now()
	tick := time.NewTicker(window)
	for time.Until(end) > window/2 {
		<-tick.C
		n, at := steps.Load(), time.Now()
		rates = append(rates, float64(n-last)/at.Sub(lastAt).Seconds())
		last, lastAt = n, at
	}
	tick.Stop()
	wg.Wait()
	ph.note = fmt.Sprintf("clients=%d", h.e.nproc)
	return steps.Load(), rates
}

// verify checks the kept exports (tags, fingerprint, Restore, realised
// loss) against the pairs' canonical releases.
func (h *hotRun) verify() {
	for _, exp := range h.exports {
		p := -1
		for i := range h.pairs {
			if h.pairs[i].seed == exp.Seed {
				p = i
			}
		}
		if p < 0 {
			h.e.gate.fail("hot: export %s has an unknown seed", exp.ID)
			continue
		}
		h.ver.check(h.e.gate, exp, h.pairs[p].canon)
	}
}

// driverSessions lists every served user for the engine driver: users
// of a pair were checked to release the pair's canonical sequence.
func (h *hotRun) driverSessions() []*session {
	var out []*session
	for p, pair := range h.pairs {
		for i := 0; i < h.users[p]; i++ {
			out = append(out, &session{id: fmt.Sprintf("pair%d#%d", p, i), seed: pair.seed, mech: server.MechanismLaplace, traj: pair.traj, served: pair.canon})
		}
	}
	return out
}

// readMem reads the runtime's allocation and GC counters.
func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// liveHeapMB returns the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / 1e6
}
