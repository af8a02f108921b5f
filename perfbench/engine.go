package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"priste/internal/api"
	"priste/internal/certcache"
	"priste/internal/core"
	"priste/internal/event"
	"priste/internal/eventspec"
	"priste/internal/grid"
	"priste/internal/lppm"
	"priste/internal/markov"
	"priste/internal/mat"
	"priste/internal/qp"
	"priste/internal/server"
	"priste/internal/world"
)

// deployment is the world a workload's servers run (map side, events,
// privacy defaults), rebuilt here from the same public constructors the
// server uses, so the benchmark can generate trajectories and verify
// releases independently of the served process state.
type deployment struct {
	side   int
	events []string
	eps    float64
	alpha  float64
	delta  float64

	g      *grid.Grid
	chain  *markov.Chain
	tp     world.TransitionProvider
	pi     mat.Vector
	parsed []event.Event
}

func newDeployment(side int, events []string) (*deployment, error) {
	def := server.DefaultConfig()
	d := &deployment{side: side, events: events, eps: def.Epsilon, alpha: def.Alpha, delta: def.Delta}
	var err error
	if d.g, err = grid.New(side, side, def.Cell); err != nil {
		return nil, err
	}
	if d.chain, err = markov.GaussianChain(d.g, def.Sigma); err != nil {
		return nil, err
	}
	d.tp = world.NewHomogeneous(d.chain)
	d.pi = markov.Uniform(d.g.States())
	if d.parsed, err = eventspec.ParseAll(events, d.g.States(), 0); err != nil {
		return nil, err
	}
	return d, nil
}

// serverConfig is the pristed configuration of the deployment, with the
// conservative-release deadline off so releases depend only on (plan,
// seed, inputs).
func (d *deployment) serverConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.GridW, cfg.GridH = d.side, d.side
	cfg.Events = d.events
	cfg.QPTimeout = 0
	return cfg
}

// trajectory samples n true locations from the deployment's mobility
// chain, starting from the given cell.
func (d *deployment) trajectory(seed int64, start, n int) []int {
	return d.chain.SamplePath(rand.New(rand.NewSource(seed)), markov.Delta(d.g.States(), start), n)
}

func (d *deployment) mechanismFactory(mech string) core.MechanismFactory {
	if mech == server.MechanismDelta {
		return func() (lppm.Perturber, error) { return lppm.NewDeltaLocationSet(d.g, d.chain, d.pi, d.delta) }
	}
	return func() (lppm.Perturber, error) { return lppm.NewPlanarLaplace(d.g), nil }
}

// corePlan compiles the plan the server compiles for sessions with the
// given mechanism (server.buildPlan's configuration).
func (d *deployment) corePlan(mech string) (*core.Plan, error) {
	cfg := core.DefaultConfig(d.eps, d.alpha)
	cfg.QPTimeout = 0
	return core.NewPlan(d.mechanismFactory(mech), d.tp, d.parsed, cfg)
}

// release is one served release.
type release struct {
	obs       int
	alphaBits uint64
}

func releaseOf(r api.StepResponse) release {
	return release{obs: r.Obs, alphaBits: math.Float64bits(r.Alpha)}
}

// fingerprint folds a release sequence into the rolling history
// fingerprint the quantifiers keep.
func fingerprint(rels []release) uint64 {
	fp := world.FingerprintSeed
	for _, r := range rels {
		fp = world.FingerprintFold(fp, r.alphaBits, r.obs)
	}
	return fp
}

// verifier checks exports against what was served: the tags must equal
// the served releases, Plan.Restore must reproduce the fingerprint, and
// every protected event's realised loss under a uniform prior must stay
// within ε once the session has passed the event window.
type verifier struct {
	d     *deployment
	mu    sync.Mutex
	plans map[string]*core.Plan

	restoreNanos int64
	restoreTags  int64
}

func newVerifier(d *deployment) *verifier {
	return &verifier{d: d, plans: make(map[string]*core.Plan)}
}

func (v *verifier) plan(mech string) (*core.Plan, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if p, ok := v.plans[mech]; ok {
		return p, nil
	}
	p, err := v.d.corePlan(mech)
	if err != nil {
		return nil, err
	}
	v.plans[mech] = p
	return p, nil
}

// check verifies one export against the releases served to its session.
func (v *verifier) check(g *gate, exp api.SessionExport, served []release) {
	if err := exp.Validate(); err != nil {
		g.fail("export %s: %v", exp.ID, err)
		return
	}
	if len(exp.Tags) != len(served) {
		g.fail("export %s: %d tags, %d releases served", exp.ID, len(exp.Tags), len(served))
		return
	}
	for t, tag := range exp.Tags {
		if tag.Obs != served[t].obs || tag.AlphaBits != served[t].alphaBits {
			g.fail("export %s: tag %d is (%d,%#x), served (%d,%#x)", exp.ID, t, tag.Obs, tag.AlphaBits, served[t].obs, served[t].alphaBits)
			return
		}
	}
	if fp := fingerprint(served); fp != exp.Fingerprint {
		g.fail("export %s: fingerprint %#x, served releases fold to %#x", exp.ID, exp.Fingerprint, fp)
	}
	p, err := v.plan(exp.Mechanism)
	if err != nil {
		g.fail("export %s: plan: %v", exp.ID, err)
		return
	}
	snap := core.Snapshot{T: exp.T, Fingerprint: exp.Fingerprint, RNG: exp.RNG, Tags: make([]core.ReleaseTag, len(exp.Tags))}
	for i, tag := range exp.Tags {
		snap.Tags[i] = core.ReleaseTag{AlphaBits: tag.AlphaBits, Obs: tag.Obs}
	}
	start := time.Now()
	fw, err := p.Restore(snap, core.NewSessionRNG(exp.Seed))
	el := time.Since(start)
	if err != nil {
		g.fail("export %s: restore: %v", exp.ID, err)
		return
	}
	v.mu.Lock()
	v.restoreNanos += int64(el)
	v.restoreTags += int64(len(snap.Tags))
	v.mu.Unlock()
	for i, ev := range v.d.parsed {
		if _, end := ev.Window(); exp.T <= end {
			continue
		}
		loss, err := fw.RealizedLoss(i, v.d.pi)
		if err != nil {
			g.fail("export %s: realized loss of event %d: %v", exp.ID, i, err)
		} else if loss > v.d.eps+1e-6 {
			g.fail("export %s: realized loss %g of event %d exceeds epsilon %g", exp.ID, loss, i, v.d.eps)
		}
	}
}

func (v *verifier) restoreUSPerTag() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.restoreTags == 0 {
		return 0
	}
	return float64(v.restoreNanos) / 1e3 / float64(v.restoreTags)
}

// Engine driver layers, timed around each call the driver makes.
const (
	lEmission = iota
	lDeltaEmission
	lSample
	lCacheGet
	lCachePut
	lCheck
	lRelease
	lCommit
	lObserve
	numLayers
)

// engineStats aggregates the driver's per-layer call counts and times.
type engineStats struct {
	calls    [numLayers]int64
	nanos    [numLayers]int64
	steps    int64
	attempts int64
	solves   int64
	nodes    int64
	unknown  int64
}

func (s *engineStats) add(o *engineStats) {
	for i := range s.calls {
		s.calls[i] += o.calls[i]
		s.nanos[i] += o.nanos[i]
	}
	s.steps += o.steps
	s.attempts += o.attempts
	s.solves += o.solves
	s.nodes += o.nodes
	s.unknown += o.unknown
}

func (s *engineStats) meanUS(l int) float64 {
	if s.calls[l] == 0 {
		return 0
	}
	return float64(s.nanos[l]) / 1e3 / float64(s.calls[l])
}

func (s *engineStats) totalNanos() int64 {
	var t int64
	for _, n := range s.nanos {
		t += n
	}
	return t
}

// enginePlan is the driver's own compiled engine for one mechanism: the
// same world models, uniform fallback and release-loop configuration a
// core.Plan holds, plus its own certified-release cache for
// history-independent mechanisms.
type enginePlan struct {
	d          *deployment
	cfg        core.Config
	models     []*world.Model
	mf         core.MechanismFactory
	shared     lppm.Perturber
	delta      bool
	cache      *certcache.Cache
	id         uint64
	uniformCol mat.Vector
	uniformEm  *mat.Matrix
}

func newEnginePlan(d *deployment, mech string, id uint64) (*enginePlan, error) {
	cp, err := d.corePlan(mech)
	if err != nil {
		return nil, err
	}
	p := &enginePlan{d: d, cfg: cp.Config(), mf: d.mechanismFactory(mech), delta: mech == server.MechanismDelta, id: id}
	for _, ev := range d.parsed {
		md, err := world.NewModelWithOptions(d.tp, ev, world.ModelOptions{Kernel: p.cfg.Kernel})
		if err != nil {
			return nil, err
		}
		p.models = append(p.models, md)
	}
	if cp.Stateless() {
		if p.shared, err = p.mf(); err != nil {
			return nil, err
		}
		p.cache = certcache.New(server.DefaultCertCacheSize)
	}
	m := d.g.States()
	p.uniformCol = mat.NewVector(m)
	p.uniformEm = mat.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		p.uniformCol[i] = 1 / float64(m)
		row := p.uniformEm.Row(i)
		for j := range row {
			row[j] = 1 / float64(m)
		}
	}
	return p, nil
}

// replay steps one session's trajectory through the engine layers in
// core.Framework.Step's order — mechanism draw, certified-release cache,
// quantifier check, the two Theorem IV.1 solves, commit — timing every
// call, and returns the releases it made.
func (p *enginePlan) replay(seed int64, traj []int, st *engineStats) ([]release, error) {
	mech := p.shared
	if mech == nil {
		var err error
		if mech, err = p.mf(); err != nil {
			return nil, err
		}
	}
	quants := make([]*world.Quantifier, len(p.models))
	for i, md := range p.models {
		quants[i] = world.NewQuantifier(md)
	}
	rng := core.NewSessionRNG(seed)
	col := mat.NewVector(p.d.g.States())
	opts := qp.ReleaseOptions{Solver: qp.Options{Tol: p.cfg.QPTol}, Deadline: p.cfg.QPTimeout}
	out := make([]release, 0, len(traj))
	clock := func(l int, start time.Time) {
		st.calls[l]++
		st.nanos[l] += int64(time.Since(start))
	}
	commit := func(t, obs int, alphaBits uint64, c mat.Vector) error {
		for _, q := range quants {
			s := time.Now()
			q.CommitTaggedTrusted(c, alphaBits, obs)
			clock(lCommit, s)
		}
		s := time.Now()
		err := mech.Observe(t, obs, c)
		clock(lObserve, s)
		out = append(out, release{obs: obs, alphaBits: alphaBits})
		return err
	}
	for t, loc := range traj {
		if err := mech.Begin(t); err != nil {
			return nil, err
		}
		st.steps++
		alpha := p.cfg.Alpha
		released := false
		for attempt := 1; attempt <= p.cfg.MaxAttempts && alpha >= p.cfg.MinAlpha; attempt++ {
			st.attempts++
			s := time.Now()
			em, err := mech.Emission(alpha)
			if p.delta {
				clock(lDeltaEmission, s)
			} else {
				clock(lEmission, s)
			}
			if err != nil {
				return nil, err
			}
			s = time.Now()
			obs, err := lppm.SampleRow(rng, em, loc)
			clock(lSample, s)
			if err != nil {
				return nil, err
			}
			c := em.ColInto(col, obs)
			alphaBits := math.Float64bits(alpha)
			ok, err := p.checkAll(quants, t, alphaBits, obs, c, opts, st)
			if err != nil {
				return nil, err
			}
			if ok {
				if err := commit(t, obs, alphaBits, c); err != nil {
					return nil, err
				}
				released = true
				break
			}
			alpha *= p.cfg.Decay
		}
		if released {
			continue
		}
		st.attempts++
		s := time.Now()
		obs, err := lppm.SampleRow(rng, p.uniformEm, loc)
		clock(lSample, s)
		if err != nil {
			return nil, err
		}
		if err := commit(t, obs, 0, p.uniformCol); err != nil {
			return nil, err
		}
	}
	if len(quants) > 0 && quants[0].HistoryFingerprint() != fingerprint(out) {
		return nil, fmt.Errorf("driver fingerprint disagrees with its own releases")
	}
	return out, nil
}

func (p *enginePlan) checkAll(quants []*world.Quantifier, t int, alphaBits uint64, obs int, c mat.Vector, opts qp.ReleaseOptions, st *engineStats) (bool, error) {
	for i, q := range quants {
		var key certcache.Key
		if p.cache != nil {
			key = certcache.Key{Plan: p.id, Event: i, T: t, History: q.HistoryFingerprint(), AlphaBits: alphaBits, Obs: obs}
			s := time.Now()
			dec, hit := p.cache.Get(key)
			st.calls[lCacheGet]++
			st.nanos[lCacheGet] += int64(time.Since(s))
			if hit {
				if !dec.OK {
					return false, nil
				}
				continue
			}
		}
		s := time.Now()
		chk := q.CheckTrusted(c)
		st.calls[lCheck]++
		st.nanos[lCheck] += int64(time.Since(s))
		chk.Epsilon = p.cfg.Epsilon
		s = time.Now()
		dec, err := qp.CheckRelease(chk, opts)
		st.calls[lRelease]++
		st.nanos[lRelease] += int64(time.Since(s))
		if err != nil {
			return false, err
		}
		st.solves += 2
		st.nodes += int64(dec.Eq15.Nodes + dec.Eq16.Nodes)
		for _, r := range []qp.Result{dec.Eq15, dec.Eq16} {
			if r.Verdict == qp.Unknown {
				st.unknown++
			}
		}
		if p.cache != nil && dec.Eq15.Verdict != qp.Unknown && dec.Eq16.Verdict != qp.Unknown {
			s = time.Now()
			p.cache.Put(key, dec)
			st.calls[lCachePut]++
			st.nanos[lCachePut] += int64(time.Since(s))
		}
		if !dec.OK {
			return false, nil
		}
	}
	return true, nil
}

// session is one user session as the benchmark drives and checks it:
// its id, seed, mechanism, true trajectory and the releases it was
// served, in order.
type session struct {
	id     string
	seed   int64
	mech   string
	traj   []int
	served []release
}

// driveEngine replays every served session through the engine driver on
// workers goroutines (sessions of one mechanism share a driver plan and
// its cache) and checks each replay against the served releases.
func driveEngine(d *deployment, g *gate, sessions []*session, workers int) (*engineStats, error) {
	plans := make(map[string]*enginePlan)
	for _, s := range sessions {
		if _, ok := plans[s.mech]; !ok {
			p, err := newEnginePlan(d, s.mech, uint64(len(plans)+1))
			if err != nil {
				return nil, err
			}
			plans[s.mech] = p
		}
	}
	total := &engineStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan *session)
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &engineStats{}
			for s := range next {
				got, err := plans[s.mech].replay(s.seed, s.traj, st)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				if fingerprint(got) != fingerprint(s.served) || len(got) != len(s.served) {
					g.fail("engine driver: session %s replays to fingerprint %#x, served %#x", s.id, fingerprint(got), fingerprint(s.served))
				}
			}
			mu.Lock()
			total.add(st)
			mu.Unlock()
		}()
	}
	for _, s := range sessions {
		next <- s
	}
	close(next)
	wg.Wait()
	return total, firstErr
}
