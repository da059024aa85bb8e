// Command perfbench is fpsping's benchmark. It boots fpspingd replicas
// (service.NewServer + NewEngine with the daemon's defaults) and, for routed
// workloads, the fpsrouter proxy (cluster.NewRouter + Start) in-process on
// 127.0.0.1:0 listeners, drives them with closed-loop HTTP clients, checks
// every answer, and prints the metrics. Nothing is spawned; everything it
// starts is stopped before it returns, and a check verifies that.
//
//	bash perfbench/run.sh --workload routed-hot --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare DIR_A DIR_B
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// one untraced and one traced client and reports the per-layer metrics.
// The last line of stdout is the result object; every result is also saved
// with its environment stamp under .bench_build/results. See README.md for
// the workloads and the layer map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"fpsping/internal/runner"
)

// setupRepeats is how many times a run boots and warms a stack; setup_s is
// the median.
const setupRepeats = 5

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	clients  int
	dir      string // where results and span logs are written
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "", "routed-hot, cold-kmatrix or analyst-walks")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run with per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "directory results/ and trace/ are written to")
	fs.BoolVar(&compare, "compare", false, "compare two result directories given as arguments")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two result directories")
			return 2
		}
		if err := compareDirs(os.Stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = traceFlag == 1
	if !(cfg.seconds > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	// At most one closed-loop client per CPU, and two at most: the stack
	// shares the machine with its load generator.
	cfg.clients = min(runtime.NumCPU(), 2)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runner.SetMaxParallel(runner.DefaultWorkers()) // as fpspingd does
	env := stamp()
	res, notes, err := bench(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("env: %s\n", env)
	for _, n := range notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-30s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if err := save(cfg, env, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
		return 1
	}
	line, _ := json.Marshal(res) // plain data always marshals
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one benchmark invocation and verifies that it left nothing
// running behind.
func bench(ctx context.Context, cfg config) (*result, []string, error) {
	baseline := runtime.NumGoroutine()
	var addrs []string
	res, notes, err := func() (*result, []string, error) {
		if cfg.trace {
			return traced(ctx, cfg, &addrs)
		}
		return untraced(ctx, cfg, &addrs)
	}()
	if lerr := checkReleased(baseline, addrs); lerr != nil {
		return nil, nil, errors.Join(err, fmt.Errorf("lifecycle: %w", lerr))
	}
	return res, notes, err
}

// setup boots a stack and runs the workload's warmup on it. exp receives
// the warmup answers routed-hot checks against.
func setup(ctx context.Context, cfg config, str stream, tr *tracer, addrs *[]string) (*stack, *expect, error) {
	st, err := boot(routed(cfg.workload), cfg.clients, tr)
	if st != nil {
		*addrs = append(*addrs, st.addrs...)
	}
	if err != nil {
		return nil, nil, err
	}
	exp := &expect{workload: cfg.workload}
	hs, hot := str.(*hotStream)
	if hot {
		exp.warming, exp.answers = true, make([][]byte, len(hs.pool))
	}
	out, err := run(ctx, st, str, exp, phase{clients: cfg.clients, ops: str.warmup()}, false)
	if err == nil && out.firstErr != nil {
		err = fmt.Errorf("warmup: %w", out.firstErr)
	}
	if err == nil && hot {
		err = exp.seal(st, hs.pool)
	}
	if err != nil {
		st.close()
		return nil, nil, err
	}
	return st, exp, nil
}

// engineTotals sums the replicas' memo and compute counters.
type engineTotals struct {
	entries                int
	hits, misses, computes uint64
}

func totals(st *stack) engineTotals {
	var t engineTotals
	for _, r := range st.replicas {
		e, h, m := r.engine.CacheStats()
		t.entries += e
		t.hits += h
		t.misses += m
		t.computes += r.engine.Computes()
	}
	return t
}

func untraced(ctx context.Context, cfg config, addrs *[]string) (*result, []string, error) {
	str, err := newStream(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	var setups []float64
	var st *stack
	var exp *expect
	for k := 0; k < setupRepeats; k++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		if st, exp, err = setup(ctx, cfg, str, nil, addrs); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	before := totals(st)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	out, err := run(ctx, st, str, exp, phase{
		clients:  cfg.clients,
		deadline: time.Now().Add(time.Duration(cfg.seconds * float64(time.Second))),
		sampleAt: sampler(cfg.seed),
	}, false)
	if err != nil {
		return nil, nil, err
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	after := totals(st)

	n, failed, elapsed := len(out.records), out.failed(), out.elapsed
	if n == 0 {
		return nil, nil, errors.New("no op completed")
	}
	lats := make([]float64, n)
	for k, r := range out.records {
		lats[k] = r.lat.Seconds() * 1e3
	}
	sort.Float64s(lats)
	p50, p99 := quantile(lats, 0.50), quantile(lats, 0.99)
	correct, notes := verify(cfg, st, exp, str, out, before, after)
	// The heap is read with only the stack left alive: the per-op records
	// grow with the op count and would otherwise make heap_mb follow
	// throughput.
	out, lats = nil, nil
	runtime.GC()
	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)
	res := &result{
		Correct:   correct,
		Attempted: n,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"latency_p50_ms":   {p50, "ms"},
			"latency_p99_ms":   {p99, "ms"},
			"throughput_ops_s": {float64(n) / elapsed.Seconds(), "ops/s"},
			"cpu_ms_per_op":    {cpu.Seconds() * 1e3 / float64(n), "ms"},
			"alloc_kb_per_op":  {float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(n), "KiB"},
			"heap_mb":          {float64(msEnd.HeapInuse) / (1 << 20), "MiB"},
		},
	}
	notes = append(notes,
		fmt.Sprintf("ops: %d in %.3fs with %d clients; latency samples %d (%d beyond p99)",
			n, elapsed.Seconds(), cfg.clients, n, n-int(math.Ceil(0.99*float64(n)))),
		fmt.Sprintf("failed_ratio: %g (%d of %d)", float64(res.Failed)/float64(n), res.Failed, n),
		fmt.Sprintf("setup_s runs: %v", setups))
	return res, notes, nil
}

// traced measures one untraced client on a fresh stack, then one traced
// client on another fresh stack over the same op prefix, and reports the
// per-layer metrics.
func traced(ctx context.Context, cfg config, addrs *[]string) (*result, []string, error) {
	str, err := newStream(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	one := cfg
	one.clients = 1

	st, exp, err := setup(ctx, one, str, nil, addrs)
	if err != nil {
		return nil, nil, err
	}
	before := totals(st)
	plain, err := run(ctx, st, str, exp, phase{clients: 1, deadline: time.Now().Add(half), sampleAt: sampler(cfg.seed)}, false)
	after := totals(st)
	var correct bool
	var notes []string
	if err == nil {
		correct, notes = verify(cfg, st, exp, str, plain, before, after)
	}
	st.close()
	if err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	st, exp, err = setup(ctx, one, str, tr, addrs)
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	tr.reset()
	tout, err := run(ctx, st, str, exp, phase{clients: 1, deadline: time.Now().Add(half), tr: tr}, false)
	if err != nil {
		return nil, nil, err
	}
	probed, err := tr.probeAll(ctx, st, time.Now().Add(half/2), time.Now().Add(half))
	if err != nil {
		return nil, nil, fmt.Errorf("probe: %w", err)
	}
	tr.link()
	if err := tr.write(filepath.Join(cfg.dir, "trace",
		fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}

	if len(plain.records) == 0 || len(tout.records) == 0 {
		return nil, nil, errors.New("no op completed")
	}
	layers := tr.layerStats()
	ops := float64(len(plain.records))
	layers["memo.hit_ratio"] = ratio(after.hits-before.hits, after.hits-before.hits+after.misses-before.misses)
	layers["memo.entries"] = float64(after.entries)
	layers["service.computes_per_op"] = float64(after.computes-before.computes) / ops
	layers["cluster.owner_ratio"] = ratio(uint64(plain.owned), uint64(plain.keyed))
	layers["trace.overhead_share"] = overhead(plain.records, tout.records)

	if tout.firstErr != nil {
		correct = false
		notes = append(notes, fmt.Sprintf("FAILED: traced pass: %d failed ops, first: %v", tout.failed(), tout.firstErr))
	}
	res := &result{Correct: correct, Attempted: len(plain.records) + len(tout.records),
		Failed: plain.failed() + tout.failed(), Metrics: map[string]metric{}}
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			return nil, nil, fmt.Errorf("trace produced no value for %s", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	notes = append(notes, fmt.Sprintf("ops: untraced %d, traced %d, probed %d; spans: %d",
		len(plain.records), len(tout.records), probed, len(tr.sp)))
	return res, notes, nil
}

// perLayer lists the traced run's metrics in report order.
var perLayer = func() []struct{ name, unit string } {
	ms := []struct{ name, unit string }{
		{"client.transport_us_p50", "us"},
		{"cluster.self_us_p50", "us"},
		{"cluster.owner_ratio", "ratio"},
		{"service.handler_self_us_p50", "us"},
		{"service.encode_us_p50", "us"},
		{"service.computes_per_op", "count/op"},
		{"scenario.decode_us_p50", "us"},
		{"scenario.validate_us_p50", "us"},
		{"scenario.key_us_p50", "us"},
		{"memo.hit_ratio", "ratio"},
		{"memo.lookup_us_p50", "us"},
		{"memo.entries", "count"},
		{"queueing.solve_us_p50", "us"},
		{"queueing.factor_us_p50", "us"},
		{"core.compile_us_p50", "us"},
		{"core.combine_us_p50", "us"},
		{"core.decompose_us_p50", "us"},
		{"core.law_sum_share", "ratio"},
		{"core.law_nested_share", "ratio"},
		{"core.loadpath_point_us_p50", "us"},
		{"core.cold_point_us_p50", "us"},
		{"mgf.invert_us_p50", "us"},
	}
	for _, k := range kMatrix {
		ms = append(ms, struct{ name, unit string }{"mgf.invert_us.k" + strconv.Itoa(k), "us"})
	}
	return append(ms,
		struct{ name, unit string }{"trace.unattributed_share", "ratio"},
		struct{ name, unit string }{"trace.overhead_share", "ratio"})
}()

// overhead compares mean client latency over the op indices both runs
// completed: traced against untraced, minus one.
func overhead(plain, tr []opRecord) float64 {
	base := map[int]time.Duration{}
	for _, r := range plain {
		base[r.i] = r.lat
	}
	var a, b time.Duration
	for _, r := range tr {
		if l, ok := base[r.i]; ok {
			a += r.lat
			b += l
		}
	}
	if b == 0 {
		return 0
	}
	return float64(a)/float64(b) - 1
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampler picks the seeded sample of ops whose answers are checked against
// a direct evaluation: the first op, so that even a short run checks one,
// and every 8th op from a seed-dependent offset.
func sampler(seed uint64) func(int) bool {
	off := int(seed % 8)
	return func(i int) bool { return i == 0 || i%8 == off }
}

// saved is the on-disk form of one result.
type saved struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Env      envStamp `json:"env"`
	Result   *result  `json:"result"`
}

func save(cfg config, env envStamp, res *result) error {
	out := filepath.Join(cfg.dir, "results")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(saved{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, env, res}, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, mode)
	return os.WriteFile(filepath.Join(out, name), append(data, '\n'), 0o644)
}
