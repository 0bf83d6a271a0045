// Command qsbench is the repository's end-to-end benchmark. One
// process runs one workload:
//
//	zoo-search    the paper's Phase 1+2 (profile, search, PBQP/BSL) on
//	              the seeded simulator, every zoo net in both modes
//	engine-infer  the data plane alone: frozen plans run on the real
//	              float32 engine and checked against stored outputs
//	serve-mixed   two closed-loop HTTP clients against an in-process
//	              optimization server, mixing searches with plan-cache
//	              hits
//
// Run it through run.sh from the repository root:
//
//	bash qsbench/run.sh --workload zoo-search --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the run records spans around
// the benchmark's own calls into the program and reports per-layer
// metrics derived from them. The line before it is a self-describing
// record of the host and the run.
//
// `go run . -generate -dir .` in this directory rewrites the frozen
// engine plans and reference outputs under frozen/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// procStart approximates process start: package initialisation runs
// before main, a few milliseconds after exec.
var procStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 5

// config is one run's arguments.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // the benchmark's directory (frozen inputs)
	out      string // scratch directory for traces and server state
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// nominalRound is one round's cost on the reference host (2-vCPU
	// Xeon). A run executes max(minRounds, seconds/nominalRound) whole
	// rounds, so op counts depend only on --seconds and repeat exactly
	// from run to run.
	nominalRound time.Duration
	minRounds    int
	setup        func(c *runCtx) (instance, error)
}

// instance is a set-up workload ready to run timed rounds.
type instance interface {
	// round runs one round: every class of op, interleaved in a
	// seeded order.
	round(r int, s *sampler)
	// check verifies the outputs the timed phase produced, after
	// timing; every failed check is a failed op.
	check(s *sampler)
	// planMS is the workload's plan_ms_geomean.
	planMS() float64
	// layers derives the per-layer metrics of a traced run.
	layers(s *sampler, spans []span) map[string]metric
	// describe adds workload facts to the run record.
	describe(rec map[string]any)
	close()
}

// runCtx is what a workload's set-up receives.
type runCtx struct {
	cfg    config
	rounds int     // timed rounds the run will execute
	tr     *tracer // nil in untraced runs
}

var workloads = []workload{zooSearch, engineInfer, serveMixed}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) rounds(seconds int) int {
	n := int(math.Round(float64(seconds) * float64(time.Second) / float64(w.nominalRound)))
	return max(n, w.minRounds)
}

// sampler collects the outcome of every timed op.
type sampler struct {
	mu        sync.Mutex
	byClass   map[string][]float64 // op latency, ms
	heapMB    []float64            // heap in use after each op
	attempted int
	failed    int
	failures  []string
	steal     float64 // share of CPU time stolen by the host while timed
}

func newSampler() *sampler { return &sampler{byClass: map[string][]float64{}} }

// record adds one op. A failed op counts against attempts and adds no
// latency sample.
func (s *sampler) record(class string, d time.Duration, err error) {
	heap := heapInUseMB()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.failLocked(fmt.Sprintf("%s: %v", class, err))
		return
	}
	s.byClass[class] = append(s.byClass[class], d.Seconds()*1e3)
	s.heapMB = append(s.heapMB, heap)
}

// fail records a failed output check of an op already counted.
func (s *sampler) fail(msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failLocked(msg)
}

func (s *sampler) failLocked(msg string) {
	s.failed++
	if len(s.failures) < 10 {
		s.failures = append(s.failures, msg)
	}
}

func (s *sampler) counts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{}
	for c, xs := range s.byClass {
		out[c] = len(xs)
	}
	return out
}

// heapInUseMB reads live-plus-unswept heap objects through
// runtime/metrics, which does not stop the world.
func heapInUseMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// allocStats reads the cumulative heap allocation counters.
func allocStats() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// result is what one run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qsbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("qsbench", flag.ContinueOnError)
	var cfg config
	var trace int
	var generate bool
	fs.StringVar(&cfg.workload, "workload", "", "workload: zoo-search, engine-infer or serve-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "timed-phase length on the reference host, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", "qsbench", "the benchmark's directory")
	fs.StringVar(&cfg.out, "out", ".bench_build", "scratch directory for traces and server state")
	fs.BoolVar(&generate, "generate", false, "rewrite the frozen engine plans and reference outputs, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if generate {
		return generateFrozen(filepath.Join(cfg.dir, frozenFile))
	}
	w, ok := lookup(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want zoo-search, engine-infer or serve-mixed)", cfg.workload)
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", cfg.out, err)
	}
	var res *result
	var rec map[string]any
	var err error
	if cfg.trace {
		res, rec, err = tracedRun(cfg, w)
	} else {
		res, rec, err = timedRun(cfg, w)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// setupTimed sets the workload up setupReps times and keeps the last
// instance. The first repetition is timed from process start, so it
// includes process start-up; setup_s is the median.
func setupTimed(c *runCtx, w workload) (instance, []float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		var err error
		inst, err = w.setup(c)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// timedPhase runs whole rounds after a GC and returns the wall time.
// The sampler also records the share of CPU time the host stole
// meanwhile.
func timedPhase(inst instance, rounds int, s *sampler, deadline time.Duration) time.Duration {
	runtime.GC()
	s0, t0 := cpuTicks()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		inst.round(r, s)
		if time.Since(start) > deadline {
			break
		}
	}
	wall := time.Since(start)
	s1, t1 := cpuTicks()
	s.steal = stealShare(s0, t0, s1, t1)
	return wall
}

// maxTimed bounds the timed phase so a run still ends within three
// minutes if the program under test becomes several times slower.
const maxTimed = 110 * time.Second

func timedRun(cfg config, w workload) (*result, map[string]any, error) {
	rounds := w.rounds(cfg.seconds)
	c := &runCtx{cfg: cfg, rounds: rounds}
	inst, setups, err := setupTimed(c, w)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	s := newSampler()
	wall := timedPhase(inst, rounds, s, maxTimed)
	inst.check(s)

	rec := baseRecord(cfg, w, rounds, wall, s)
	rec["setup_s_each"] = setups
	inst.describe(rec)
	return finish(s, endToEnd(setups, wall, s, inst)), rec, nil
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(setups []float64, wall time.Duration, s *sampler, inst instance) map[string]metric {
	var completed int
	for _, n := range s.counts() {
		completed += n
	}
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {float64(completed) / wall.Seconds(), "1/s"},
		"op_ms_p50":       {classQuantileGeomean(s.byClass, 0.5), "ms"},
		"op_ms_p90":       {classQuantileGeomean(s.byClass, 0.9), "ms"},
		"heap_mb_p90":     {quantile(s.heapMB, 0.9), "MB"},
		"plan_ms_geomean": {inst.planMS(), "ms"},
	}
}

// tracedRun runs the named workload at full size with spans recorded,
// then one round of each other workload, so every traced run reports
// every per-layer metric: a layer the named workload does not exercise
// is measured on the workload that does.
func tracedRun(cfg config, named workload) (*result, map[string]any, error) {
	all := newSampler()
	m := map[string]metric{}
	rec := map[string]any{}
	order := []workload{named}
	for _, w := range workloads {
		if w.name != named.name {
			order = append(order, w)
		}
	}
	for _, w := range order {
		rounds := 1
		if w.name == named.name {
			rounds = w.rounds(cfg.seconds)
		}
		c := &runCtx{cfg: cfg, rounds: rounds, tr: newTracer()}
		inst, err := w.setup(c)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		s := newSampler()
		wall := timedPhase(inst, rounds, s, maxTimed)
		inst.check(s)
		for k, v := range inst.layers(s, c.tr.snapshot()) {
			m[k] = v
		}
		wrec := baseRecord(cfg, w, rounds, wall, s)
		wrec["op_ms_p50_traced"] = classQuantileGeomean(s.byClass, 0.5)
		inst.describe(wrec)
		rec[w.name] = wrec
		inst.close()
		all.attempted += s.attempted
		all.failed += s.failed
		all.failures = append(all.failures, s.failures...)
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%s-seed%d.jsonl", named.name, w.name, cfg.seed))
		if err := c.tr.write(path); err != nil {
			return nil, nil, err
		}
	}
	return finish(all, m), rec, nil
}

func finish(s *sampler, m map[string]metric) *result {
	for _, f := range s.failures {
		fmt.Fprintln(os.Stderr, "qsbench: failed:", f)
	}
	correct := s.failed == 0 && s.attempted > 0
	for k, v := range m {
		// JSON has no NaN or Inf; such a value means a class or a
		// layer went unmeasured, which makes the run incorrect.
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "qsbench: metric %s is %v\n", k, v.Value)
			m[k] = metric{0, v.Unit}
			correct = false
		}
	}
	return &result{Correct: correct, Attempted: s.attempted, Failed: s.failed, Metrics: m}
}
