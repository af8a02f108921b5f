package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"priste/internal/api"
	"priste/internal/server"
)

// The cold workload: long-lived users with no certified-release cache
// hits on pristed's default 10×10 world. Every session has its own seed
// and a trajectory sampled from the deployment's chain that runs well
// past the event window; one in four uses the history-dependent
// δ-location-set mechanism, whose verdicts are never cached. Nearly all
// step time is the two Theorem IV.1 solves per candidate.
const (
	coldSide   = 10
	coldEvent  = "0-9@3-7"
	coldSteps  = 24
	coldSetups = 15 // a set-up takes ~50 ms and varies ±25% from one to the next
	coldCycles = 7  // drain and recovery cycles
	coldDrains = 5  // drain samples per cycle: one takes ~10 ms
)

// coldSessions sizes the fixed work of a run from its measuring time:
// one session per map cell for every 20 seconds (about 17 s of work on
// the reference machine), so start cells are covered evenly.
func coldSessions(seconds float64, cells int) int {
	return cells * max(1, int(math.Round(seconds/20)))
}

func runCold(e *env, traced bool) (map[string]metric, error) {
	d, err := newDeployment(coldSide, []string{coldEvent})
	if err != nil {
		return nil, err
	}
	base, err := coldPass(e, d, nil, "cold")
	if err != nil {
		return nil, err
	}
	if !traced {
		return base.endToEnd(), nil
	}
	rec := newRecorder()
	tr, err := coldPass(e, d, rec, "cold-traced")
	if err != nil {
		return nil, err
	}
	return perLayer(e, "cold", base, tr, rec)
}

func newColdSessions(e *env, d *deployment, label string) []*session {
	n := coldSessions(e.seconds, d.g.States())
	starts := rand.New(rand.NewSource(e.seed)).Perm(d.g.States())
	out := make([]*session, n)
	for i := range out {
		mech := server.MechanismLaplace
		if i%4 == 3 {
			mech = server.MechanismDelta
		}
		out[i] = &session{
			id:   fmt.Sprintf("%s-s%d", label, i),
			seed: splitmix(e.seed, 3, int64(i)),
			mech: mech,
			traj: d.trajectory(splitmix(e.seed, 4, int64(i)), starts[i%len(starts)], coldSteps),
		}
	}
	return out
}

// coldSetup starts the server and creates every session (compiling the
// Laplace and δ-location-set plans).
func coldSetup(e *env, d *deployment, rec *recorder, label string, sessions []*session) (*backend, *clients, error) {
	be, err := newBackend(d.serverConfig(), filepath.Join(e.work, label), rec)
	if err != nil {
		return nil, nil, err
	}
	cl, err := newClients(be)
	if err != nil {
		_ = be.stop()
		return nil, nil, err
	}
	ph := e.ledger.phase("cold/setup")
	for _, s := range sessions {
		seed := s.seed
		_, err := cl.rpc.CreateSession(context.Background(), api.CreateSessionRequest{ID: s.id, Seed: &seed, Mechanism: s.mech})
		ph.record(err)
		if err != nil {
			cl.close()
			_ = be.stop()
			return nil, nil, fmt.Errorf("cold: create %s: %w", s.id, err)
		}
	}
	return be, cl, nil
}

func coldPass(e *env, d *deployment, rec *recorder, label string) (*passResult, error) {
	res := &passResult{}
	var be *backend
	var cl *clients
	var sessions []*session
	for i := 0; i < coldSetups; i++ {
		if be != nil {
			cl.close()
			if err := be.stop(); err != nil {
				return nil, err
			}
		}
		sessions = newColdSessions(e, d, label)
		start := time.Now()
		var err error
		if be, cl, err = coldSetup(e, d, rec, fmt.Sprintf("%s-%d", label, i), sessions); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	defer func() {
		cl.close()
		_ = be.stop()
	}()

	// Closed loop: nproc clients over RPC unary; each takes the next
	// session and steps its whole trajectory.
	ph := e.ledger.phase(label + "/closed_loop")
	rec.reset()
	ms0, cpu0 := readMem(), cpuSeconds()
	res.stats0 = be.stats()
	lat := &latencies{}
	next := make(chan *session, len(sessions))
	for _, s := range sessions {
		next <- s
	}
	close(next)
	var checkMu sync.Mutex
	var checkSum float64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				for t, loc := range s.traj {
					ctx, trace := rec.withTrace(context.Background())
					t0 := rec.now()
					st := time.Now()
					resp, err := cl.rpc.Step(ctx, s.id, loc)
					rec.add(kClientRPCUnary, trace, 0, t0)
					ph.record(err)
					if err != nil {
						e.gate.fail("cold: step %d of %s: %v", t, s.id, err)
						break
					}
					lat.add(msSince(st))
					if resp.T != t {
						e.gate.fail("cold: %s released t=%d for step %d", s.id, resp.T, t)
					}
					s.served = append(s.served, releaseOf(resp))
					checkMu.Lock()
					checkSum += resp.CheckMicros
					checkMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	res.stats1 = be.stats()
	ms1 := readMem()
	ph.note = fmt.Sprintf("clients=%d sessions=%d", e.nproc, len(sessions))

	v := lat.values()
	res.p50 = windowQuantile(v, 0.50, 1000)
	res.p99 = windowQuantile(v, 0.99, 1000)
	res.steps = int64(len(v))
	res.throughput = float64(len(v)) / elapsed
	res.cpuUS = cpu * 1e6 / float64(max(len(v), 1))
	res.allocsPerStep = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(res.steps, 1))
	res.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	res.checkUS = checkSum / float64(max(res.steps, 1))

	// Correctness: every export against its served releases.
	ver := newVerifier(d)
	exports := exportAll(e, cl.rpc, sessions, label+"/export")
	var runs [][]release
	var trajs [][]int
	for i, s := range sessions {
		if exports[i] != nil {
			ver.check(e.gate, *exports[i], s.served)
		}
		runs = append(runs, s.served)
		trajs = append(trajs, s.traj)
	}
	res.restoreUS = ver.restoreUSPerTag()
	res.utility(d, runs, trajs)
	res.sessions = sessions
	res.heapMB = liveHeapMB()

	if err := drainAndRecover(e, be, cl, sessions, label, coldCycles, coldDrains, res); err != nil {
		return nil, err
	}
	return res, nil
}

// drainAndRecover measures drain_s and recover_s on a single backend
// over cycles: each exports every session (the state draining the
// instance must move) drains times, then halts the backend and restarts
// it on its store until every session answers. Every export is checked
// against the releases served.
func drainAndRecover(e *env, be *backend, cl *clients, sessions []*session, label string, cycles, drains int, res *passResult) error {
	for i := 0; i < cycles; i++ {
		for j := 0; j < drains; j++ {
			res.drain = append(res.drain, drainExports(e, cl.rpc, sessions, label+"/drain"))
		}
		if err := be.halt(); err != nil {
			return err
		}
		cl.reconnect()
		r, err := recoverSessions(e, be, cl.rpc, sessions, label+"/recover")
		if err != nil {
			return err
		}
		res.recover = append(res.recover, r)
	}
	drainExports(e, cl.rpc, sessions, label+"/drain")
	return nil
}

// drainExports exports every session — the state draining the instance
// must move — and checks each export's fingerprint and t against the
// releases served. It returns the seconds the exports took.
func drainExports(e *env, c api.Client, sessions []*session, phase string) float64 {
	start := time.Now()
	exports := exportAll(e, c, sessions, phase)
	el := time.Since(start).Seconds()
	for i, s := range sessions {
		if exports[i] != nil && (exports[i].Fingerprint != fingerprint(s.served) || exports[i].T != len(s.served)) {
			e.gate.fail("%s: %s has fingerprint %#x t=%d, served releases fold to %#x t=%d",
				phase, s.id, exports[i].Fingerprint, exports[i].T, fingerprint(s.served), len(s.served))
		}
	}
	return el
}

// recoverSessions restarts a stopped backend on its store and returns
// the seconds until every session answers with its served t.
func recoverSessions(e *env, be *backend, c api.Client, sessions []*session, phase string) (float64, error) {
	ph := e.ledger.phase(phase)
	start := time.Now()
	if err := be.start(); err != nil {
		return 0, err
	}
	for _, s := range sessions {
		info, err := c.Session(context.Background(), s.id)
		ph.record(err)
		if err != nil || info.T != len(s.served) {
			e.gate.fail("%s: %s answers t=%d (err %v), served %d", phase, s.id, info.T, err, len(s.served))
		}
	}
	return time.Since(start).Seconds(), nil
}

// exporter is what exportAll needs of a client or of the router.
type exporter interface {
	ExportSession(ctx context.Context, id string) (api.SessionExport, error)
}

// exportAll exports every session through c; failed exports are nil.
func exportAll(e *env, c exporter, sessions []*session, phase string) []*api.SessionExport {
	ph := e.ledger.phase(phase)
	out := make([]*api.SessionExport, len(sessions))
	for i, s := range sessions {
		exp, err := c.ExportSession(context.Background(), s.id)
		ph.record(err)
		if err != nil {
			e.gate.fail("export %s: %v", s.id, err)
			continue
		}
		out[i] = &exp
	}
	return out
}
