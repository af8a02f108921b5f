// Command perfbench is the repository benchmark. It drives one of three
// workloads — hot, cold, lifecycle — through the real serving stack in
// one process (servers, router and clients talk over loopback), checks
// every release it receives, and prints one JSON result line:
//
//	perfbench --workload hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it runs the workload untraced and then traced, and carries
// the per-layer metrics. README.md explains the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the per-run context shared by the workloads: the inputs' seed,
// the measuring time, the scratch directory inside the checkout, the
// correctness gate and the operation ledger.
type env struct {
	seed    int64
	seconds float64
	work    string
	nproc   int
	gate    *gate
	ledger  *ledger
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: hot, cold or lifecycle")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 20, "measuring time of one run in seconds")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an untraced and a traced run")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want hot, cold or lifecycle)\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	work := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{
		seed:    *seed,
		seconds: float64(*seconds),
		work:    work,
		nproc:   runtime.NumCPU(),
		gate:    &gate{},
		ledger:  &ledger{},
	}
	printRecord(*workload, e, *traced == 1)
	// Flush what earlier runs left to write back before measuring, and
	// what this run leaves before exiting: a hot run churns tens of
	// thousands of journal files, whose writeback would otherwise slow
	// the file creates of the next run's set-up.
	syscall.Sync()
	metrics, err := run(e, *traced == 1)
	_ = os.RemoveAll(work)
	syscall.Sync()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e.ledger.print()
	res := result{
		Attempted: e.ledger.attempted(),
		Failed:    e.ledger.failed(),
		Metrics:   metrics,
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			e.gate.fail("metric %s is %v", name, m.Value)
			res.Metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	res.Correct = e.gate.ok()
	e.gate.print()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// workloads maps a workload name to its runner. A runner returns the
// end-to-end metrics, or with traced set the per-layer metrics.
var workloads = map[string]func(e *env, traced bool) (map[string]metric, error){
	"hot":       runHot,
	"cold":      runCold,
	"lifecycle": runLifecycle,
}

// printRecord prints the run record: the machine, the toolchain, the
// source revision and the inputs.
func printRecord(workload string, e *env, traced bool) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("# run: workload=%s seed=%d seconds=%g trace=%v\n", workload, e.seed, e.seconds, traced)
	fmt.Printf("# machine: cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s\n",
		cpuModel(), e.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gate collects correctness failures. Any failure makes the run incorrect.
type gate struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	if len(g.first) < 20 {
		g.first = append(g.first, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n == 0
}

func (g *gate) print() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n == 0 {
		fmt.Println("# correctness: all checks passed")
		return
	}
	fmt.Printf("# correctness: %d checks FAILED\n", g.n)
	for _, m := range g.first {
		fmt.Println("#   ", m)
	}
}

// ledger counts operations sent, succeeded and failed per phase.
type ledger struct {
	mu     sync.Mutex
	order  []string
	phases map[string]*phaseCount
}

type phaseCount struct {
	sent, ok, failed atomic.Int64
	note             string
}

func (l *ledger) phase(name string) *phaseCount {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.phases == nil {
		l.phases = make(map[string]*phaseCount)
	}
	p, ok := l.phases[name]
	if !ok {
		p = &phaseCount{}
		l.phases[name] = p
		l.order = append(l.order, name)
	}
	return p
}

// record counts one operation of a phase; a non-nil error counts it failed.
func (p *phaseCount) record(err error) {
	p.sent.Add(1)
	if err != nil {
		p.failed.Add(1)
	} else {
		p.ok.Add(1)
	}
}

func (l *ledger) attempted() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, p := range l.phases {
		n += p.sent.Load()
	}
	return n
}

func (l *ledger) failed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, p := range l.phases {
		n += p.failed.Load()
	}
	return n
}

func (l *ledger) print() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, name := range l.order {
		p := l.phases[name]
		fmt.Printf("# phase %-28s sent=%d succeeded=%d failed=%d %s\n",
			name, p.sent.Load(), p.ok.Load(), p.failed.Load(), p.note)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// windowQuantile splits samples, in the order they completed, into
// windows of at least minWindow samples and returns the median over the
// windows of each window's q-quantile. One slow burst then moves one
// window's figure, not the run's.
func windowQuantile(samples []float64, q float64, minWindow int) float64 {
	n := len(samples) / minWindow
	if n <= 1 {
		return quantile(samples, q)
	}
	per := make([]float64, n)
	for i := range per {
		lo, hi := i*len(samples)/n, (i+1)*len(samples)/n
		per[i] = quantile(samples[lo:hi], q)
	}
	return median(per)
}

// cpuSeconds returns the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// latencies is a concurrency-safe list of latency samples in ms.
type latencies struct {
	mu sync.Mutex
	v  []float64
}

func (l *latencies) add(ms float64) {
	l.mu.Lock()
	l.v = append(l.v, ms)
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.v
}

// splitmix mixes a seed and stream indices into an independent 64-bit
// value; every generated input derives from the run seed through it.
func splitmix(seed int64, idx ...int64) int64 {
	z := uint64(seed)
	for _, i := range idx {
		z += 0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}
