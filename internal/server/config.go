package server

import (
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"time"

	"priste/internal/store"
	"priste/internal/world"
)

// Default service limits.
const (
	DefaultMaxSessions = 4096
	DefaultSessionTTL  = 15 * time.Minute
	DefaultQueueDepth  = 64
	// DefaultCertCacheSize bounds the shared certified-release cache
	// (entries across all shards).
	DefaultCertCacheSize = 1 << 16
	// DefaultSnapshotEvery is the snapshot cadence: a session's WAL is
	// compacted into a snapshot every this many committed steps.
	DefaultSnapshotEvery = 256
	// DefaultSlowStep is the served-step duration at which the worker
	// pool logs a slow-step warning with the step's stage breakdown.
	DefaultSlowStep = 500 * time.Millisecond
	// DefaultSchedAffinity is the scheduler's plan-affinity run length:
	// after draining a session, a worker serves up to this many more
	// queued sessions sharing the same plan (warm plan + cert cache)
	// before falling back to arrival order.
	DefaultSchedAffinity = 8
	// DefaultDrainBatch caps the steps one worker visit commits for a
	// single session before the session is parked back at the tail of
	// the run queue — the fairness bound that keeps one firehose stream
	// from starving other sessions.
	DefaultDrainBatch = 64
	// DefaultStreamBuffer is the per-subscriber release buffer of the
	// SSE stream; a subscriber that falls this many releases behind is
	// dropped rather than allowed to backpressure the commit path.
	DefaultStreamBuffer = 256
)

// Config describes one pristed deployment: the shared world model every
// session lives in (map, mobility), the per-session privacy defaults
// (mechanism, budget, protected events), and the service limits (session
// cap, idle TTL, worker pool, queue depth). Sessions may override the
// privacy defaults at creation time; the world model is fixed for the
// lifetime of the server.
type Config struct {
	// GridW, GridH are the map dimensions; Cell is the cell edge length
	// in user units (e.g. km).
	GridW, GridH int
	Cell         float64
	// Sigma is the Gaussian scale of the synthetic mobility model shared
	// by all sessions (§V-A).
	Sigma float64

	// Epsilon and Alpha are the default ε-spatiotemporal event privacy
	// level and initial LPPM budget for new sessions.
	Epsilon float64
	Alpha   float64
	// Mechanism is the default LPPM: MechanismLaplace or MechanismDelta.
	Mechanism string
	// Delta is the δ-location-set parameter used when Mechanism is
	// MechanismDelta.
	Delta float64
	// Events are the default protected-event specs ("LO-HI@START-END",
	// see internal/eventspec) for sessions that do not supply their own.
	Events []string
	// QPTimeout is ignored, and kept only for compatibility: served steps
	// always run the exact release-condition solver, so releases depend
	// only on (plan, seed, inputs) and never on a time budget.
	QPTimeout time.Duration

	// SparseCutoff, when positive, drops mobility-chain transition
	// probabilities below cutoff×(row maximum) and renormalises each row
	// at startup (markov.Chain.Sparsified). The Gaussian kernel is
	// mathematically dense, so without a cutoff the quantifier runs on
	// the dense kernels; a small cutoff (e.g. 1e-4) makes the chain
	// structurally sparse and the release loop O(m·nnz) instead of
	// O(m³) per commit. Changing the cutoff changes the world model:
	// persisted sessions are scoped to it (see worldTag).
	SparseCutoff float64
	// Kernel selects the transition-kernel compilation mode:
	// KernelAuto (default, empty string), KernelDense, KernelSparse or
	// KernelOracle (the naive reference kernels, for regression
	// comparison). All modes are bit-for-bit equivalent; forcing one is
	// a performance/regression knob, not a semantic one — which is why,
	// like Kernel, it does not enter the plan-registry key.
	Kernel string
	// Shadow enables the float32 shadow check path on every compiled
	// plan (core.Config.Shadow): candidate checks run against float32
	// operator copies and are decided directly when the qp margin
	// exceeds the certified error bound, falling back to the exact
	// float64 check otherwise. Released sequences are identical with
	// and without it, so it is not part of the plan key either.
	Shadow bool

	// Parallelism fixes the width of the process-global kernel worker
	// pool the quantifier commits fan their tile-parallel products out
	// on (`pristed -parallel`). 0 = auto: the pool tracks GOMAXPROCS.
	// Parallel and serial kernels are bit-identical, so this never
	// changes releases, fingerprints or replay — it only decides how
	// many cores one commit may occupy when the drain workers leave
	// budget free (see /statsz "pool").
	Parallelism int

	// MaxSessions caps live sessions; creating one more evicts the least
	// recently used session. Default DefaultMaxSessions.
	MaxSessions int
	// SessionTTL evicts sessions idle for longer than this. Zero uses
	// DefaultSessionTTL; negative disables idle eviction.
	SessionTTL time.Duration
	// Workers sizes the step worker pool. Zero uses GOMAXPROCS; negative
	// starts no workers (test hook: enqueued steps are never drained).
	Workers int
	// QueueDepth bounds each session's pending-step queue; an enqueue on
	// a full queue fails with ErrQueueFull (HTTP 429). Default
	// DefaultQueueDepth.
	QueueDepth int
	// CertCacheSize bounds the certified-release cache shared by every
	// session whose mechanism is history-independent (entries). Zero uses
	// DefaultCertCacheSize; negative disables the cache (every release
	// condition is re-solved).
	CertCacheSize int
	// SchedAffinity is the scheduler's plan-affinity run length: how
	// many consecutive same-plan sessions a worker may pick off the run
	// queue before reverting to arrival order. Zero uses
	// DefaultSchedAffinity; negative disables affinity scheduling
	// (pure FIFO).
	SchedAffinity int
	// DrainBatch caps the steps one worker visit commits for a single
	// session before parking it back at the run-queue tail. Zero uses
	// DefaultDrainBatch; negative removes the cap (a visit drains the
	// session's queue to empty, the pre-PR7 behaviour).
	DrainBatch int
	// StreamBuffer is the per-subscriber buffered-release depth of the
	// SSE release stream; a subscriber that lags this far behind the
	// commit stream is disconnected. Zero uses DefaultStreamBuffer.
	StreamBuffer int

	// Store is the session durability backend: committed releases are
	// journaled to a per-session WAL write-ahead of the step response,
	// periodically compacted into snapshots, and surviving sessions are
	// rehydrated on startup. Nil runs in-memory only (store.Null).
	Store store.Store
	// SnapshotEvery compacts a session's WAL into a snapshot every this
	// many committed steps. Zero uses DefaultSnapshotEvery; negative
	// disables periodic snapshots (the WAL still makes sessions
	// recoverable — replay just reads a longer log).
	SnapshotEvery int

	// Logger receives the server's structured logs: replay failures,
	// WAL append/snapshot errors, slow steps. Nil discards them (the
	// library default; cmd/pristed always installs one).
	Logger *slog.Logger
	// SlowStep is the pool-side step duration (queue wait + commit +
	// WAL append) at or above which a warning with the step's trace ID
	// and stage breakdown is logged. Zero uses DefaultSlowStep;
	// negative disables slow-step logging.
	SlowStep time.Duration
}

// Mechanism names accepted by Config and session-creation requests.
const (
	MechanismLaplace = "laplace"
	MechanismDelta   = "delta"
)

// Kernel modes accepted by Config.Kernel.
const (
	KernelAuto   = "auto"
	KernelDense  = "dense"
	KernelSparse = "sparse"
	KernelOracle = "oracle"
)

// kernelMode maps the config string onto the world compilation mode.
func (c Config) kernelMode() (world.KernelMode, error) {
	switch c.Kernel {
	case "", KernelAuto:
		return world.KernelAuto, nil
	case KernelDense:
		return world.KernelDense, nil
	case KernelSparse:
		return world.KernelSparse, nil
	case KernelOracle:
		return world.KernelOracle, nil
	default:
		return 0, fmt.Errorf("server: unknown kernel mode %q (want %q, %q, %q or %q)",
			c.Kernel, KernelAuto, KernelDense, KernelSparse, KernelOracle)
	}
}

// DefaultConfig returns a small default deployment: 10×10 km map,
// unit-scale Gaussian mobility, geo-indistinguishability at ε=0.5, α=1,
// protecting PRESENCE over states 0..9 during timestamps 3..7.
func DefaultConfig() Config {
	return Config{
		GridW:     10,
		GridH:     10,
		Cell:      1.0,
		Sigma:     1.0,
		Epsilon:   0.5,
		Alpha:     1.0,
		Mechanism: MechanismLaplace,
		Delta:     0.05,
		Events:    []string{"0-9@3-7"},
	}
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = DefaultSessionTTL
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.CertCacheSize == 0 {
		c.CertCacheSize = DefaultCertCacheSize
	}
	if c.Mechanism == "" {
		c.Mechanism = MechanismLaplace
	}
	if c.Store == nil {
		c.Store = store.Null{}
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.SlowStep == 0 {
		c.SlowStep = DefaultSlowStep
	}
	if c.SchedAffinity == 0 {
		c.SchedAffinity = DefaultSchedAffinity
	}
	if c.DrainBatch == 0 {
		c.DrainBatch = DefaultDrainBatch
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = DefaultStreamBuffer
	}
	return c
}

func (c Config) validate() error {
	if c.GridW <= 0 || c.GridH <= 0 {
		return fmt.Errorf("server: grid %dx%d must be positive", c.GridW, c.GridH)
	}
	if c.Cell <= 0 || math.IsNaN(c.Cell) {
		return fmt.Errorf("server: cell size must be positive, got %g", c.Cell)
	}
	if c.Sigma <= 0 || math.IsNaN(c.Sigma) {
		return fmt.Errorf("server: sigma must be positive, got %g", c.Sigma)
	}
	if c.Epsilon <= 0 || math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) {
		return fmt.Errorf("server: epsilon must be positive and finite, got %g", c.Epsilon)
	}
	if c.Alpha <= 0 || math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0) {
		return fmt.Errorf("server: alpha must be positive and finite, got %g", c.Alpha)
	}
	switch c.Mechanism {
	case MechanismLaplace:
	case MechanismDelta:
		if c.Delta < 0 || c.Delta >= 1 || math.IsNaN(c.Delta) {
			return fmt.Errorf("server: delta must lie in [0,1), got %g", c.Delta)
		}
	default:
		return fmt.Errorf("server: unknown mechanism %q (want %q or %q)", c.Mechanism, MechanismLaplace, MechanismDelta)
	}
	if c.SparseCutoff < 0 || c.SparseCutoff >= 1 || math.IsNaN(c.SparseCutoff) {
		return fmt.Errorf("server: sparse cutoff %g outside [0,1)", c.SparseCutoff)
	}
	if _, err := c.kernelMode(); err != nil {
		return err
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("server: parallelism must be >= 0, got %d", c.Parallelism)
	}
	if len(c.Events) == 0 {
		return fmt.Errorf("server: at least one default event spec is required")
	}
	return nil
}
