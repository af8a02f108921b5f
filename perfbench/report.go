package main

import (
	"fmt"
	"math"
	"path/filepath"

	"priste/internal/api"
	"priste/internal/core"
	"priste/internal/metrics"
)

// passResult is what one pass of a workload measured.
type passResult struct {
	setup   []float64 // seconds per set-up
	drain   []float64 // seconds per drain
	recover []float64 // seconds per recovery

	p50, p99      float64 // step latency, ms
	throughput    float64 // steps per second
	steps         int64   // steps in the timed phases
	cpuUS         float64 // process CPU time per step in the timed phases, µs
	allocsPerStep float64
	gcPauseMS     float64
	lateMS        float64 // open-loop generator lateness, p99

	utilAlpha, utilKM, released float64
	heapMB                      float64

	stats0, stats1 api.Stats // server counters around the timed phases
	checkUS        float64   // mean StepResponse.CheckMicros
	restoreUS      float64   // Plan.Restore time per replayed tag

	// Router figures (lifecycle only).
	migrateMS float64
	misroutes int64

	d        *deployment
	sessions []*session // every served session, for the engine driver
}

// utility computes the §V-A utility metrics over released sequences
// and their true trajectories with internal/metrics.
func (r *passResult) utility(d *deployment, runs [][]release, trajs [][]int) {
	r.d = d
	steps := make([][]core.StepResult, len(runs))
	var total, uniform int
	for i, run := range runs {
		steps[i] = make([]core.StepResult, len(run))
		for t, rel := range run {
			steps[i][t] = core.StepResult{T: t, Obs: rel.obs, Alpha: math.Float64frombits(rel.alphaBits), Uniform: rel.alphaBits == 0}
			total++
			if rel.alphaBits == 0 {
				uniform++
			}
		}
	}
	if b, err := metrics.AvgBudget(steps); err == nil {
		r.utilAlpha = b.Mean
	}
	if k, err := metrics.AvgEuclid(d.g, trajs, steps); err == nil {
		r.utilKM = k.Mean
	}
	if total > 0 {
		r.released = 1 - float64(uniform)/float64(total)
	}
}

// endToEnd renders the metrics a user of the system sees.
func (r *passResult) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":        {median(r.setup), "s"},
		"step_p50_ms":    {r.p50, "ms"},
		"utility_alpha":  {r.utilAlpha, "1/km"},
		"utility_km":     {r.utilKM, "km"},
		"released_share": {r.released, "ratio"},
		"drain_s":        {median(r.drain), "s"},
		"recover_s":      {median(r.recover), "s"},
		"heap_mb":        {r.heapMB, "MB"},
	}
}

// mergeStats adds the counters the per-layer report reads from b to a,
// so restarted instances and a fleet's servers report as one. The kernel
// pool is process-global, so its counters are taken from b alone.
func mergeStats(a, b api.Stats) api.Stats {
	a.Steps.Served += b.Steps.Served
	a.CertCache.Hits += b.CertCache.Hits
	a.CertCache.Misses += b.CertCache.Misses
	a.Plans.BlockedKernels += b.Plans.BlockedKernels
	a.Plans.BandedKernels += b.Plans.BandedKernels
	a.Pool = b.Pool
	a.Transports.HTTP = mergeTransport(a.Transports.HTTP, b.Transports.HTTP)
	a.Transports.RPC = mergeTransport(a.Transports.RPC, b.Transports.RPC)
	return a
}

func mergeTransport(a, b api.TransportStats) api.TransportStats {
	out := api.TransportStats{Steps: a.Steps + b.Steps, Stages: make(map[string]api.StageStats)}
	if out.Steps > 0 {
		out.StepMeanMicros = (float64(a.Steps)*a.StepMeanMicros + float64(b.Steps)*b.StepMeanMicros) / float64(out.Steps)
	}
	for _, m := range []map[string]api.StageStats{a.Stages, b.Stages} {
		for name, s := range m {
			o := out.Stages[name]
			n := o.Count + s.Count
			if n > 0 {
				o.MeanMicros = (float64(o.Count)*o.MeanMicros + float64(s.Count)*s.MeanMicros) / float64(n)
			}
			o.Count = n
			out.Stages[name] = o
		}
	}
	return out
}

// stageDelta returns the mean of a pipeline stage over the timed phases
// (between the two snapshots), merged over the HTTP and RPC transports.
func stageDelta(s0, s1 api.Stats, stage string) float64 {
	var n, sum float64
	for _, pair := range [][2]api.TransportStats{{s0.Transports.RPC, s1.Transports.RPC}, {s0.Transports.HTTP, s1.Transports.HTTP}} {
		a, b := pair[0].Stages[stage], pair[1].Stages[stage]
		dn := float64(b.Count - a.Count)
		if dn <= 0 {
			continue
		}
		n += dn
		sum += float64(b.Count)*b.MeanMicros - float64(a.Count)*a.MeanMicros
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// coverage is the share of a transport's mean served step time that its
// stage means account for over the timed phases. Each stage mean is taken
// over its own count: on HTTP, streamed steps pass the pool stages but
// are not served-step samples. commit_hit and commit_miss are one stage.
func coverage(a, b api.TransportStats) float64 {
	delta := func(name string) (n, sum float64) {
		sa, sb := a.Stages[name], b.Stages[name]
		return float64(sb.Count - sa.Count), float64(sb.Count)*sb.MeanMicros - float64(sa.Count)*sa.MeanMicros
	}
	steps, total := float64(b.Steps-a.Steps), float64(b.Steps)*b.StepMeanMicros-float64(a.Steps)*a.StepMeanMicros
	if steps <= 0 || total <= 0 {
		return 0
	}
	var covered float64
	for _, group := range [][]string{{"decode"}, {"queue_wait"}, {"commit_hit", "commit_miss"}, {"wal_append"}, {"encode"}} {
		var n, sum float64
		for _, name := range group {
			dn, ds := delta(name)
			n += dn
			sum += ds
		}
		if n > 0 {
			covered += sum / n
		}
	}
	return covered / (total / steps)
}

func perStep(v, steps int64) float64 {
	if steps <= 0 {
		return 0
	}
	return float64(v) / float64(steps)
}

// perLayer renders the per-layer metrics: server counters from the
// untraced pass (base), span self times from the traced pass (tr), and
// engine layer times from replaying every session the traced pass served
// through the engine driver.
func perLayer(e *env, workload string, base, tr *passResult, rec *recorder) (map[string]metric, error) {
	lt, err := rec.analyze(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv", workload, e.seed)))
	if err != nil {
		return nil, err
	}
	es, err := driveEngine(tr.d, e.gate, tr.sessions, e.nproc)
	if err != nil {
		return nil, err
	}
	s0, s1 := base.stats0, base.stats1
	served := s1.Steps.Served - s0.Steps.Served
	hits := s1.CertCache.Hits - s0.CertCache.Hits
	misses := s1.CertCache.Misses - s0.CertCache.Misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	engine := float64(es.totalNanos())
	qpShare := 0.0
	if engine > 0 {
		qpShare = float64(es.nanos[lRelease]) / engine
	}
	unknown := 0.0
	if es.solves > 0 {
		unknown = float64(es.unknown) / float64(es.solves)
	}
	m := map[string]metric{
		"transport.rpc_unary.self_us":     {lt.selfUS(kClientRPCUnary), "us"},
		"transport.http_unary.self_us":    {lt.selfUS(kClientHTTPUnary), "us"},
		"transport.rpc_stream.client_us":  {lt.meanUS(kClientRPCStream), "us"},
		"transport.http_stream.client_us": {lt.meanUS(kClientHTTPStream), "us"},

		"server.decode_us":               {stageDelta(s0, s1, "decode"), "us"},
		"server.encode_us":               {stageDelta(s0, s1, "encode"), "us"},
		"server.queue_wait_us":           {stageDelta(s0, s1, "queue_wait"), "us"},
		"server.commit_hit_us":           {stageDelta(s0, s1, "commit_hit"), "us"},
		"server.commit_miss_us":          {stageDelta(s0, s1, "commit_miss"), "us"},
		"server.wal_append_us":           {stageDelta(s0, s1, "wal_append"), "us"},
		"server.stage_coverage.rpc":      {coverage(s0.Transports.RPC, s1.Transports.RPC), "ratio"},
		"server.stage_coverage.http":     {coverage(s0.Transports.HTTP, s1.Transports.HTTP), "ratio"},
		"server.service_us":              {lt.meanUS(kServiceStep), "us"},
		"server.service_self_us":         {lt.selfUS(kServiceStep), "us"},
		"server.create_us":               {lt.meanUS(kServiceCreate), "us"},
		"server.delete_us":               {lt.meanUS(kServiceDelete), "us"},
		"server.export_us":               {lt.meanUS(kServiceExport), "us"},
		"server.import_us":               {lt.meanUS(kServiceImport), "us"},
		"store.append_us":                {lt.meanUS(kStoreAppend), "us"},
		"store.create_us":                {lt.meanUS(kStoreCreate), "us"},
		"store.delete_us":                {lt.meanUS(kStoreDelete), "us"},
		"store.load_ms":                  {lt.meanUS(kStoreLoad) / 1e3, "ms"},
		"store.snapshot_us":              {lt.meanUS(kStoreSnapshot), "us"},
		"store.import_us":                {lt.meanUS(kStoreImport), "us"},
		"certcache.hit_ratio":            {hitRatio, "ratio"},
		"certcache.timed_misses":         {float64(misses), "count"},
		"certcache.get_us":               {es.meanUS(lCacheGet), "us"},
		"certcache.put_us":               {es.meanUS(lCachePut), "us"},
		"lppm.emission_us":               {es.meanUS(lEmission), "us"},
		"lppm.delta_emission_us":         {es.meanUS(lDeltaEmission), "us"},
		"lppm.sample_us":                 {es.meanUS(lSample), "us"},
		"lppm.observe_us":                {es.meanUS(lObserve), "us"},
		"world.check_us":                 {es.meanUS(lCheck), "us"},
		"world.commit_us":                {es.meanUS(lCommit), "us"},
		"mat.blocked_kernels_per_step":   {perStep(s1.Plans.BlockedKernels-s0.Plans.BlockedKernels, served), "count"},
		"mat.banded_kernels_per_step":    {perStep(s1.Plans.BandedKernels-s0.Plans.BandedKernels, served), "count"},
		"par.parallel_dispatch_per_step": {perStep(s1.Pool.ParallelDispatch-s0.Pool.ParallelDispatch, served), "count"},
		"par.serial_dispatch_per_step":   {perStep(s1.Pool.SerialDispatch-s0.Pool.SerialDispatch, served), "count"},
		"qp.release_us":                  {es.meanUS(lRelease), "us"},
		"qp.solves_per_step":             {perStep(es.solves, es.steps), "count"},
		"qp.nodes_per_solve":             {perStep(es.nodes, es.solves), "count"},
		"qp.unknown_share":               {unknown, "ratio"},
		"qp.engine_share":                {qpShare, "ratio"},
		"core.attempts_per_step":         {perStep(es.attempts, es.steps), "count"},
		"core.check_us":                  {base.checkUS, "us"},
		"core.restore_us_per_tag":        {base.restoreUS, "us"},
		"core.replayed_sessions":         {float64(len(tr.sessions)), "count"},
		"engine.self_us_per_step":        {engine / 1e3 / math.Max(float64(es.steps), 1), "us"},
		"router.step_us":                 {lt.meanUS(kRouterStep), "us"},
		"router.backend_us":              {lt.meanUS(kBackendStep), "us"},
		"router.self_us":                 {lt.selfUS(kRouterStep), "us"},
		"router.migrate_ms":              {base.migrateMS, "ms"},
		"router.misroute_retries":        {float64(base.misroutes), "count"},
		"runtime.allocs_per_step":        {base.allocsPerStep, "count"},
		"runtime.gc_pause_ms":            {base.gcPauseMS, "ms"},
		"loadgen.late_ms":                {base.lateMS, "ms"},
		"loadgen.step_p99_ms":            {base.p99, "ms"},
		"loadgen.steps_per_s":            {base.throughput, "1/s"},
		"loadgen.cpu_us_per_step":        {base.cpuUS, "us"},
		"trace.overhead_p50_ms":          {tr.p50 - base.p50, "ms"},
		"trace.overhead_steps_per_s":     {base.throughput - tr.throughput, "1/s"},
	}
	fmt.Printf("# engine driver: replayed %d sessions (%d steps) to their served fingerprints\n", len(tr.sessions), es.steps)
	fmt.Printf("# layer stress: certcache hit ratio %.4f (hot: >= 0.99), qp share of engine self time %.3f (cold: >= 0.8), timed cache misses %d (lifecycle: 0, so no solves)\n",
		hitRatio, qpShare, misses)
	return m, nil
}
