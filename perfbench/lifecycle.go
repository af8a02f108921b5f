package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"priste/internal/api"
	"priste/internal/ring"
	"priste/internal/router"
	"priste/internal/server"
)

// The lifecycle workload: durable fleet churn on the 10×10 world. Two
// backends — one reached over HTTP, one over RPC — sit behind an
// in-process router with health probes off. The timed cycles drain and
// undrain one backend (fingerprint-verified export → import → delete
// migrations) and restart both backends on their stores, and every
// session steps a few more times through the router after each. Those
// steps are all certified-release cache hits (warmed by scout sessions
// during set-up), so import, rehydration, the commit kernels, the store
// and the router dominate, and the solver is absent.
const (
	lifeSide     = 10
	lifeEvent    = "0-9@3-7"
	lifeSessions = 64
	lifePairs    = 4
	lifeBase     = 24 // steps per session during set-up
	lifeSteps    = 3  // steps per session after each move
	lifeSetups   = 3
	backendA     = "http-a"
	backendB     = "rpc-b"
	// lifeCorpus seeds the four shared (seed, trajectory) pairs. They are
	// the same in every run: the cost of moving a history does not depend
	// on its content, while four pairs drawn per run would swing the
	// utility figures by ±20% from seed to seed. The run seed picks the
	// session ids, and with them the ring placement.
	lifeCorpus = 20190408
)

// lifeCycles sizes the fixed work of a run from its measuring time.
func lifeCycles(seconds float64) int { return max(int(seconds/5), 1) }

type lifeRun struct {
	e        *env
	d        *deployment
	rec      *recorder
	pass     string // phase-name prefix of the pass
	label    string // per set-up prefix of ids and store directories
	a, b     *backend
	ca, cb   *clients
	rt       *router.Router
	pairs    []sharedPair
	sessions []*session
	pairOf   []int

	mu      sync.Mutex
	checkUS float64 // sum of StepResponse.CheckMicros over the timed steps
}

func runLifecycle(e *env, traced bool) (map[string]metric, error) {
	d, err := newDeployment(lifeSide, []string{lifeEvent})
	if err != nil {
		return nil, err
	}
	base, err := lifePass(e, d, nil, "life")
	if err != nil {
		return nil, err
	}
	if !traced {
		return base.endToEnd(), nil
	}
	rec := newRecorder()
	tr, err := lifePass(e, d, rec, "life-traced")
	if err != nil {
		return nil, err
	}
	return perLayer(e, "lifecycle", base, tr, rec)
}

func lifePass(e *env, d *deployment, rec *recorder, label string) (*passResult, error) {
	res := &passResult{}
	cycles := lifeCycles(e.seconds)
	total := lifeBase + cycles*2*lifeSteps
	var l *lifeRun
	for i := 0; i < lifeSetups; i++ {
		if l != nil {
			l.close()
		}
		start := time.Now()
		var err error
		if l, err = newLifeRun(e, d, rec, label, fmt.Sprintf("%s-%d", label, i), total); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	defer l.close()

	rec.reset()
	ms0 := readMem()
	res.stats0 = mergeStats(l.a.stats(), l.b.stats())
	lat := &latencies{}
	var rates []float64 // router steps per second of each step phase
	var cpu float64     // process CPU seconds in the step phases
	step := func() {
		c0 := cpuSeconds()
		rates = append(rates, float64(len(l.sessions)*lifeSteps)/l.stepAll(lat, lifeSteps))
		cpu += cpuSeconds() - c0
	}
	var moveMS float64
	var moved int
	for c := 0; c < cycles; c++ {
		// Drain one backend and bring it back; both moves are drain samples.
		before := exportAll(l.e, l.rt, l.sessions, l.pass+"/export_moves")
		t0, r0 := time.Now(), rec.now()
		rep, err := l.rt.Drain(backendA)
		res.drain = append(res.drain, time.Since(t0).Seconds())
		rec.add(kRouterDrain, 0, 0, r0)
		if err != nil || rep.Failed > 0 {
			e.gate.fail("lifecycle: drain: %v (%d failed)", err, rep.Failed)
		}
		t1, r1 := time.Now(), rec.now()
		rep2, err := l.rt.Undrain(backendA)
		res.drain = append(res.drain, time.Since(t1).Seconds())
		rec.add(kRouterUndrain, 0, 0, r1)
		moveMS += msSince(t0)
		moved += rep.Moved + rep2.Moved
		if err != nil || rep2.Failed > 0 {
			e.gate.fail("lifecycle: undrain: %v (%d failed)", err, rep2.Failed)
		}
		ph := e.ledger.phase(label + "/migrations")
		for i := 0; i < rep.Moved+rep2.Moved; i++ {
			ph.record(nil)
		}
		for i := 0; i < rep.Failed+rep2.Failed; i++ {
			ph.record(fmt.Errorf("migration failed"))
		}
		l.sameAs(before, exportAll(l.e, l.rt, l.sessions, l.pass+"/export_moves"), "drain/undrain")
		step()

		// Restart both backends on their stores, twice.
		before = exportAll(l.e, l.rt, l.sessions, l.pass+"/export_moves")
		for k := 0; k < 2; k++ {
			r, err := l.restart()
			if err != nil {
				return nil, err
			}
			res.recover = append(res.recover, r)
		}
		l.sameAs(before, exportAll(l.e, l.rt, l.sessions, l.pass+"/export_moves"), "restart")
		step()
	}
	ms1 := readMem()
	res.stats1 = mergeStats(l.a.stats(), l.b.stats())
	if fs := l.rt.Stats().Fleet; fs != nil {
		res.misroutes = fs.MisrouteRetries
	}
	if moved > 0 {
		res.migrateMS = moveMS / float64(moved)
	}

	v := lat.values()
	res.p50 = windowQuantile(v, 0.50, 1000)
	res.p99 = windowQuantile(v, 0.99, 1000)
	res.steps = int64(len(v))
	res.throughput = median(rates)
	res.cpuUS = cpu * 1e6 / float64(max(res.steps, 1))
	res.allocsPerStep = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(res.steps, 1))
	res.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	// Correctness: final exports against everything served; sessions of
	// one pair must have released the same sequence.
	ver := newVerifier(d)
	final := exportAll(l.e, l.rt, l.sessions, l.pass+"/export_final")
	var runs [][]release
	var trajs [][]int
	for i, s := range l.sessions {
		if final[i] != nil {
			ver.check(e.gate, *final[i], s.served)
		}
		p := l.pairOf[i]
		ref := l.pairs[p].canon
		if len(s.served) != len(ref) || fingerprint(s.served) != fingerprint(ref) {
			e.gate.fail("lifecycle: %s released a different sequence from its pair", s.id)
		}
		runs = append(runs, s.served)
		trajs = append(trajs, s.traj)
	}
	res.restoreUS = ver.restoreUSPerTag()
	res.utility(d, runs, trajs)
	res.sessions = l.sessions
	res.checkUS = l.checkUS / float64(max(res.steps, 1))
	res.heapMB = liveHeapMB()
	return res, nil
}

// newLifeRun starts the fleet, warms both backends' certified-release
// caches with one scout session per pair and backend (each stepping the
// pair's whole trajectory), and builds the sessions' histories through
// the router.
func newLifeRun(e *env, d *deployment, rec *recorder, pass, label string, total int) (*lifeRun, error) {
	l := &lifeRun{e: e, d: d, rec: rec, pass: pass, label: label}
	var err error
	cfg := d.serverConfig()
	if l.a, err = newBackend(cfg, filepath.Join(e.work, label, "a"), rec); err != nil {
		return nil, err
	}
	if l.b, err = newBackend(cfg, filepath.Join(e.work, label, "b"), rec); err != nil {
		_ = l.a.stop()
		return nil, err
	}
	if l.ca, err = newClients(l.a); err == nil {
		l.cb, err = newClients(l.b)
	}
	if err != nil {
		_ = l.a.stop()
		_ = l.b.stop()
		return nil, err
	}
	var ca, cb api.Client = l.ca.http, l.cb.rpc
	if rec != nil {
		ca, cb = &tracedClient{Client: ca, rec: rec}, &tracedClient{Client: cb, rec: rec}
	}
	l.rt, err = router.New(router.Config{
		Backends:      []router.Backend{{Name: backendA, Client: ca}, {Name: backendB, Client: cb}},
		ProbeInterval: -1,
	})
	if err != nil {
		l.close()
		return nil, err
	}

	l.pairs = make([]sharedPair, lifePairs)
	for p := range l.pairs {
		l.pairs[p].seed = splitmix(lifeCorpus, 5, int64(p))
		start := int(uint64(splitmix(lifeCorpus, 6, int64(p))) % uint64(d.g.States()))
		l.pairs[p].traj = d.trajectory(splitmix(lifeCorpus, 7, int64(p)), start, total)
	}
	// Scouts: every pair once on each backend, in parallel.
	ph := e.ledger.phase("lifecycle/scouts")
	var wg sync.WaitGroup
	scout := make([][2][]release, lifePairs)
	for p := range l.pairs {
		for bi, c := range []api.Client{l.ca.http, l.cb.rpc} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scout[p][bi] = l.scout(c, fmt.Sprintf("%s-scout%d-%d", label, p, bi), l.pairs[p], ph)
			}()
		}
	}
	wg.Wait()
	for p := range l.pairs {
		if fingerprint(scout[p][0]) != fingerprint(scout[p][1]) || len(scout[p][0]) != total {
			e.gate.fail("lifecycle: pair %d releases differ between the HTTP and the RPC backend", p)
		}
		l.pairs[p].canon = scout[p][1]
	}

	// Sessions: created through the router, histories built through it.
	// Ids come from the run seed, taken so each backend owns half.
	cph := e.ledger.phase("lifecycle/create")
	placement := ring.New(0, backendA, backendB)
	owned := map[string]int{}
	for k := int64(0); len(l.sessions) < lifeSessions; k++ {
		id := fmt.Sprintf("%s-%x", label, uint64(splitmix(e.seed, 8, k)))
		owner, _ := placement.Owner(id)
		if owned[owner] == lifeSessions/2 {
			continue
		}
		owned[owner]++
		p := len(l.sessions) % lifePairs
		s := &session{id: id, seed: l.pairs[p].seed, mech: server.MechanismLaplace, traj: l.pairs[p].traj}
		seed := s.seed
		_, err := l.rt.CreateSession(api.CreateSessionRequest{ID: s.id, Seed: &seed})
		cph.record(err)
		if err != nil {
			l.close()
			return nil, fmt.Errorf("lifecycle: create %s: %w", s.id, err)
		}
		l.sessions = append(l.sessions, s)
		l.pairOf = append(l.pairOf, p)
	}
	l.stepAll(nil, lifeBase)
	return l, nil
}

// scout steps a whole pair trajectory on one backend and deletes the
// session, returning its releases.
func (l *lifeRun) scout(c api.Client, id string, pair sharedPair, ph *phaseCount) []release {
	ctx := context.Background()
	seed := pair.seed
	_, err := c.CreateSession(ctx, api.CreateSessionRequest{ID: id, Seed: &seed})
	ph.record(err)
	if err != nil {
		l.e.gate.fail("lifecycle: scout %s: %v", id, err)
		return nil
	}
	var out []release
	for _, loc := range pair.traj {
		resp, err := c.Step(ctx, id, loc)
		ph.record(err)
		if err != nil {
			l.e.gate.fail("lifecycle: scout %s: %v", id, err)
			return nil
		}
		out = append(out, releaseOf(resp))
	}
	err = c.DeleteSession(ctx, id)
	ph.record(err)
	if err != nil {
		l.e.gate.fail("lifecycle: scout %s: %v", id, err)
	}
	return out
}

// stepAll steps every session n more times through the router on nproc
// workers, checks each release against its pair, and returns the
// elapsed seconds.
func (l *lifeRun) stepAll(lat *latencies, n int) float64 {
	ph := l.e.ledger.phase(l.pass + "/steps")
	next := make(chan int, len(l.sessions))
	for i := range l.sessions {
		next <- i
	}
	close(next)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < l.e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := l.sessions[i]
				canon := l.pairs[l.pairOf[i]].canon
				for k := 0; k < n; k++ {
					t := len(s.served)
					ctx, trace := l.rec.withTrace(context.Background())
					t0 := l.rec.now()
					st := time.Now()
					resp, err := l.rt.Step(ctx, s.id, s.traj[t])
					l.rec.add(kRouterStep, trace, 0, t0)
					ph.record(err)
					if err != nil {
						l.e.gate.fail("lifecycle: step %d of %s: %v", t, s.id, err)
						break
					}
					if lat != nil {
						lat.add(msSince(st))
						l.mu.Lock()
						l.checkUS += resp.CheckMicros
						l.mu.Unlock()
					}
					r := releaseOf(resp)
					if resp.T != t || (t < len(canon) && r != canon[t]) {
						l.e.gate.fail("lifecycle: %s released %v at t=%d, pair releases %v", s.id, r, resp.T, canon[min(t, len(canon)-1)])
					}
					s.served = append(s.served, r)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// sameAs checks that a move kept every session's fingerprint and t.
func (l *lifeRun) sameAs(before, after []*api.SessionExport, move string) {
	for i := range before {
		if before[i] == nil || after[i] == nil {
			continue
		}
		if before[i].Fingerprint != after[i].Fingerprint || before[i].T != after[i].T {
			l.e.gate.fail("lifecycle: %s changed across %s: fingerprint %#x→%#x t %d→%d",
				l.sessions[i].id, move, before[i].Fingerprint, after[i].Fingerprint, before[i].T, after[i].T)
		}
	}
}

// restart stops both backends gracefully and restarts them on their
// stores, returning the seconds from the restart until every session
// answers through the router with its served t.
func (l *lifeRun) restart() (float64, error) {
	if err := l.stopBackends(); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := l.startBackends(); err != nil {
		return 0, err
	}
	ph := l.e.ledger.phase(l.pass + "/restart")
	for _, s := range l.sessions {
		info, err := l.rt.GetSession(s.id)
		ph.record(err)
		if err != nil || info.T != len(s.served) {
			l.e.gate.fail("lifecycle: %s after restart: t=%d err=%v", s.id, info.T, err)
		}
	}
	return time.Since(start).Seconds(), nil
}

func (l *lifeRun) stopBackends() error {
	errA := l.a.stop()
	errB := l.b.stop()
	if errA != nil {
		return errA
	}
	return errB
}

// startBackends restarts both backends on their stores concurrently and
// points the clients at the new servers.
func (l *lifeRun) startBackends() error {
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = l.a.start() }()
	go func() { defer wg.Done(); errB = l.b.start() }()
	wg.Wait()
	if errA != nil {
		return errA
	}
	if errB != nil {
		return errB
	}
	l.ca.reconnect()
	l.cb.reconnect()
	return nil
}

func (l *lifeRun) close() {
	if l.rt != nil {
		l.rt.Shutdown()
	}
	l.ca.close()
	l.cb.close()
	_ = l.a.stop()
	_ = l.b.stop()
}
