// Command perfbench is the repository benchmark: it runs the simulator on
// three workloads and reports how fast and lean the simulator runs (host
// metrics) next to what the simulated AdaServe deployment achieves
// (simulated metrics, exact per seed). Build and run it from the repository
// root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload spec-decode --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it measures for at least --seconds seconds and prints the
// end-to-end table. With --trace 1 it runs a profiled pass, then alternates
// plain and traced passes, and prints the per-layer table: spans around the
// program's interfaces, CPU and allocation profiles folded by package, and
// simulated layer counters; it writes the first traced simulation's spans
// as a Chrome trace-event file. --workload all does both for every
// workload. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
// A pass simulates the workload once for each of its input seeds (a fixed
// number per workload, derived from --seed). Simulated metrics pool one
// pass's requests; host metrics are medians over simulations or passes, in
// reference seconds (see yardstick.go). Every simulation is
// checked: no error, conservation of offered requests, at least 1000
// finished requests, and the same simulated digest on every repeat of a
// seed, traced or not. Every pass is checked to have loaded the workload's
// layer. A failure counts against "failed" and clears "correct".
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"adaserve/internal/request"
)

// minPasses is the fewest passes an untraced run makes, so every input seed
// runs at least twice and its repeat is checked against its first run.
const minPasses = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: spec-decode, ctrl-chaos, prefix-sessions or all")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 15, "seconds to measure for (per workload and mode)")
	fs.IntVar(&o.trace, "trace", 0, "1: traced per-layer run, 0: untraced end-to-end run")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	var defs []workloadDef
	if o.workload == "all" {
		defs = workloads()
	} else {
		w, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		defs = []workloadDef{w}
	}
	// One simulation at a time on one thread: the simulator is
	// single-threaded, and a second processor left to the runtime's
	// background GC would make host times depend on how busy it is.
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	res := result{Metrics: map[string]metricValue{}}
	for _, w := range defs {
		modes := []int{o.trace}
		if o.workload == "all" {
			modes = []int{0, 1}
		}
		// One runner per workload, so its digest check spans both modes.
		r := newRunner(w, o.seed, stderr)
		for _, mode := range modes {
			measureMode := measure
			if mode == 1 {
				measureMode = measureTraced
			}
			m, err := measureMode(r, o, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			for k, v := range m {
				if len(defs) > 1 {
					k = w.name + "/" + k
				}
				res.Metrics[k] = v
			}
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// simRun is one simulation: its host costs and its simulated outcome.
type simRun struct {
	// yard is the yardstick's time just before the simulation's set-up.
	yard, setup, host     time.Duration
	allocBytes, allocObjs uint64
	gcCycles              uint32
	// outTokens are the output tokens of the simulation's finished requests.
	outTokens int
	out       *outcome
	digest    uint64
}

// runner executes a workload's simulations and applies the checks.
type runner struct {
	w       workloadDef
	seeds   []uint64
	digests map[uint64]uint64
	errw    io.Writer

	attempted, failed int
}

func newRunner(w workloadDef, seed uint64, errw io.Writer) *runner {
	r := &runner{w: w, digests: map[uint64]uint64{}, errw: errw}
	for k := uint64(0); k < uint64(w.seeds); k++ {
		r.seeds = append(r.seeds, mix(seed, 100+k))
	}
	return r
}

// sim builds and runs one simulation. Setup is timed from the start of the
// build to the start of the run; the run alone is the simulation's host
// time. A GC before the run keeps setup garbage out of it.
func (r *runner) sim(seed uint64, tr *tracer) (simRun, error) {
	var sr simRun
	sr.yard = yardstick()
	t0 := time.Now()
	sc, err := r.w.build(seed, tr)
	if err != nil {
		return sr, fmt.Errorf("build: %w", err)
	}
	sr.setup = time.Since(t0)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	tr.begin(spanRun)
	rr, runErr := sc.srv.Run(sc.src)
	tr.end()
	sr.host = time.Since(t1)
	runtime.ReadMemStats(&m1)
	if runErr != nil {
		return sr, fmt.Errorf("run: %w", runErr)
	}
	sr.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	sr.allocObjs = m1.Mallocs - m0.Mallocs
	sr.gcCycles = m1.NumGC - m0.NumGC
	if sr.out, err = sc.collect(rr); err != nil {
		return sr, fmt.Errorf("collect: %w", err)
	}
	for _, q := range sr.out.offered {
		if q.Phase == request.Done {
			sr.outTokens += q.OutputLen()
		}
	}
	if err := check(sr.out); err != nil {
		return sr, err
	}
	sr.digest = digest(sr.out)
	if d, ok := r.digests[seed]; ok && d != sr.digest {
		return sr, fmt.Errorf("simulated digest %016x differs from an earlier run of the same seed (%016x)", sr.digest, d)
	}
	r.digests[seed] = sr.digest
	return sr, nil
}

// pass simulates every input seed once, then checks that the pass loaded
// the workload's layer. ok is false when any simulation or the layer check
// failed; failures are reported and counted, and a failed layer check
// counts every simulation of the pass as failed.
func (r *runner) pass(traced, record bool) (runs []simRun, tracers []*tracer, ok bool) {
	for i, seed := range r.seeds {
		var tr *tracer
		if traced {
			tr = newTracer()
			tr.recording = record && i == 0
		}
		r.attempted++
		sr, err := r.sim(seed, tr)
		if err != nil {
			r.failed++
			fmt.Fprintf(r.errw, "perfbench: %s seed %016x: %v\n", r.w.name, seed, err)
			continue
		}
		runs = append(runs, sr)
		tracers = append(tracers, tr)
	}
	if len(runs) < len(r.seeds) {
		return runs, tracers, false
	}
	outs := make([]*outcome, len(runs))
	for i, sr := range runs {
		outs[i] = sr.out
	}
	if err := r.w.loaded(outs); err != nil {
		r.failed += len(runs)
		fmt.Fprintf(r.errw, "perfbench: %s: %v\n", r.w.name, err)
		return runs, tracers, false
	}
	return runs, tracers, true
}

// passHost sums a pass's allocations and GC cycles.
type passHost struct {
	allocBytes, allocObjs uint64
	gcCycles              uint32
}

func sumPass(runs []simRun) passHost {
	var p passHost
	for _, sr := range runs {
		p.allocBytes += sr.allocBytes
		p.allocObjs += sr.allocObjs
		p.gcCycles += sr.gcCycles
	}
	return p
}

// measure is the untraced end-to-end run.
func measure(r *runner, o options, stdout io.Writer) (map[string]metricValue, error) {
	w := r.w
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var (
		yards, setups            []float64
		tokRate, allocMB, allocK []float64
		stats                    *simStats
		passes                   int
	)
	for passes < minPasses || time.Now().Before(deadline) {
		runs, _, ok := r.pass(false, false)
		passes++
		if !ok {
			break // the run is already incorrect; its figures would not count
		}
		// Host speed is the median over simulations, not passes: it shrugs
		// off the few simulations a busy neighbour on a shared machine slows.
		for _, sr := range runs {
			yards = append(yards, sr.yard.Seconds())
			setups = append(setups, sr.setup.Seconds())
			tokRate = append(tokRate, float64(sr.outTokens)/sr.host.Seconds())
		}
		p := sumPass(runs)
		allocMB = append(allocMB, float64(p.allocBytes)/1e6)
		allocK = append(allocK, float64(p.allocObjs)/1e3)
		if stats == nil {
			stats = &simStats{}
			for _, sr := range runs {
				stats.add(sr.out)
			}
		}
	}
	if stats == nil {
		stats = &simStats{}
	}
	// Host times in reference seconds (see yardstick.go).
	speed := median(yards) / yardstickRef.Seconds()
	v := map[string]float64{
		"setup_s":            ratio(median(setups), speed),
		"sim_tok_per_host_s": median(tokRate) * speed,
		"peak_rss_mb":        peakRSSMB(),
		"alloc_mb":           median(allocMB),
		"alloc_objects_k":    median(allocK),
		"slo_attain_pct":     stats.attainPct(),
		"goodput_tok_s":      stats.goodput(),
		"ttft_p50_s":         percentile(stats.ttft, 0.50),
		"ttft_p99_s":         percentile(stats.ttft, 0.99),
		"tpot_p50_ms":        1e3 * percentile(stats.tpot, 0.50),
		"tpot_p99_ms":        1e3 * percentile(stats.tpot, 0.99),
	}
	fmt.Fprintf(stdout, "== %s: end to end (seed %d, %d passes x %d simulations, %d failed) ==\n",
		w.name, o.seed, passes, len(r.seeds), r.failed)
	m := report(stdout, endToEnd, v)
	// runs_failed_frac is printed only: it is 0 when all is well, and the
	// result line carries it as failed/attempted.
	fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", "runs_failed_frac", ratio(float64(r.failed), float64(r.attempted)), "fraction")
	fmt.Fprintf(stdout, "  host times in reference seconds: yardstick %.3f ms against %v; unscaled setup_s %.6g, sim_tok_per_host_s %.6g\n",
		1e3*median(yards), yardstickRef, median(setups), median(tokRate))
	fmt.Fprintf(stdout, "  offered %d, finished %d per pass; simulated digest %s\n",
		stats.offered, stats.finished, r.digest())
	return m, nil
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"sim_tok_per_host_s", "tok/s"}, {"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"}, {"alloc_objects_k", "k"},
	{"slo_attain_pct", "%"}, {"goodput_tok_s", "tok/s"},
	{"ttft_p50_s", "s"}, {"ttft_p99_s", "s"}, {"tpot_p50_ms", "ms"}, {"tpot_p99_ms", "ms"},
}

// digest combines the per-seed simulated digests, in seed order, into one;
// "incomplete" when a seed never ran cleanly.
func (r *runner) digest() string {
	var all []byte
	for _, s := range r.seeds {
		d, ok := r.digests[s]
		if !ok {
			return "incomplete"
		}
		all = binary.LittleEndian.AppendUint64(all, d)
	}
	h := fnv.New64a()
	h.Write(all)
	return fmt.Sprintf("%016x", h.Sum64())
}

// report prints defs in order with their values (0 where a value is
// missing) and returns them as result metrics.
func report(w io.Writer, defs []metricDef, values map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		m[d.name] = metricValue{v, d.unit}
	}
	return m
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// measureTraced is the per-layer run. A profiled pass comes first: the
// profiles come from a pass without spans, so span overhead does not
// distort the CPU shares. Plain and traced passes then alternate; the
// overhead of the spans is the median over seeds of a traced simulation's
// host time over the plain one's. Span times and counts are per pass (one
// simulation per input seed), medians over the traced passes.
func measureTraced(r *runner, o options, stdout io.Writer) (map[string]metricValue, error) {
	w := r.w
	dir, err := os.MkdirTemp(o.out, "prof-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	prof := &profiler{dir: dir}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var (
		overhead, compile, generate []float64
		perPass                     = map[string][]float64{}
		durs                        = map[string][]float64{}
		first                       []simRun
		recorded                    *tracer
		pairs                       int
	)
	// The profiled pass runs once, ahead of the plain and traced pairs:
	// profiling itself costs a few percent, so it stays out of the overhead.
	if err := prof.start(); err != nil {
		return nil, err
	}
	profiled, _, okProfiled := r.pass(false, false)
	if err := prof.stop(); err != nil {
		return nil, err
	}
	for okProfiled && (pairs == 0 || time.Now().Before(deadline)) {
		pairs++
		plain, _, okPlain := r.pass(false, false)
		traced, tracers, okTraced := r.pass(true, recorded == nil)
		if !okPlain || !okTraced {
			break
		}
		if first == nil {
			first, recorded = traced, tracers[0]
		}
		// Overhead per seed, traced over plain, so seeds of different cost
		// weigh alike.
		for i := range traced {
			overhead = append(overhead, 100*(traced[i].host.Seconds()/plain[i].host.Seconds()-1))
		}
		tot := map[string]float64{}
		for _, tr := range tracers {
			for name, st := range tr.stats {
				tot[name+".calls"] += float64(st.calls)
				tot[name+".total"] += st.total.Seconds()
				tot[name+".self"] += st.self.Seconds()
				durs[name] = append(durs[name], st.durUS...)
			}
			compile = append(compile, tr.stat(spanCompile).total.Seconds())
			generate = append(generate, tr.stat(spanGenerate).total.Seconds())
		}
		for _, k := range spanKeys {
			perPass[k] = append(perPass[k], tot[k])
		}
	}
	v := map[string]float64{}
	if first != nil {
		cpu, alloc, err := prof.layerShares()
		if err != nil {
			return nil, err
		}
		spans := func(name, kind string) float64 { return median(perPass[name+"."+kind]) }
		v["sched.iterate_calls"] = spans(spanIterate, "calls")
		v["sched.iterate_us_p50"] = percentile(durs[spanIterate], 0.50)
		v["sched.iterate_us_p99"] = percentile(durs[spanIterate], 0.99)
		v["sched.self_s"] = spans(spanIterate, "self")
		v["cluster.route_calls"] = spans(spanRoute, "calls")
		v["cluster.route_us_p50"] = percentile(durs[spanRoute], 0.50)
		v["cluster.route_us_p99"] = percentile(durs[spanRoute], 0.99)
		v["serve.source_s"] = spans(spanSource, "total")
		v["obs.observe_s"] = spans(spanObserve, "total")
		v["faults.tick_s"] = spans(spanFaults, "total")
		v["autoscale.tick_s"] = spans(spanAutoscale, "total")
		v["adaptive.admit_s"] = spans(spanAdmit, "total")
		v["serve.self_s"] = spans(spanRun, "self")
		for _, l := range layers {
			v["cpu_pct."+l] = cpu[l]
			v["alloc_pct."+l] = alloc[l]
		}
		v["runtime.gc_cycles"] = float64(sumPass(profiled).gcCycles)
		for k, x := range simulatedCounters(first) {
			v[k] = x
		}
		v["trace.compile_s"] = median(compile)
		v["workload.generate_s"] = median(generate)
		v["bench.trace_overhead_pct"] = median(overhead)

		name := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
		if err := writeSpans(recorded, name, fmt.Sprintf("perfbench %s seed %d", w.name, o.seed)); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "== %s: per layer (seed %d, %d traced passes x %d simulations, %d failed; spans in %s) ==\n",
			w.name, o.seed, pairs, len(r.seeds), r.failed, name)
	} else {
		fmt.Fprintf(stdout, "== %s: per layer (seed %d): every traced pass failed ==\n", w.name, o.seed)
	}
	m := report(stdout, perLayer, v)
	fmt.Fprintf(stdout, "  simulated digest (traced and untraced alike) %s\n", r.digest())
	return m, nil
}

// spanKeys are the per-pass span aggregates the table reads.
var spanKeys = func() []string {
	var keys []string
	for _, name := range []string{spanRun, spanIterate, spanRoute, spanSource, spanObserve, spanFaults, spanAutoscale, spanAdmit} {
		keys = append(keys, name+".calls", name+".total", name+".self")
	}
	return keys
}()

func writeSpans(tr *tracer, name, title string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := tr.writeTrace(f, title); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// simulatedCounters are the layer counters of one pass, taken from the
// simulated summaries: exact per seed.
func simulatedCounters(runs []simRun) map[string]float64 {
	var st simStats
	v := map[string]float64{}
	var lookups, hits, hedged, cancelled float64
	for _, sr := range runs {
		o := sr.out
		st.add(o)
		v["obs.events"] += float64(o.events)
		v["engine.sim_spec_s"] += o.breakdown.Speculation
		v["engine.sim_verify_s"] += o.breakdown.Verification
		v["engine.sim_prefill_s"] += o.breakdown.Prefill
		v["sched.sim_cpu_s"] += o.breakdown.Scheduling
		v["cluster.imbalance"] += o.imbalance / float64(len(runs))
		if p := o.prefix; p != nil {
			lookups += float64(p.Lookups)
			hits += float64(p.Hits)
			v["kvcache.saved_tok"] += float64(p.HitTokens)
			v["kvcache.evictions"] += float64(p.Evictions)
			v["kvcache.host_reloads"] += float64(p.Reloads)
			v["kvcache.reload_stall_s"] += p.ReloadStallTime
		}
		if f := o.faults; f != nil {
			v["faults.retried"] += float64(f.Retried)
			v["faults.dropped"] += float64(f.Dropped)
			hedged += float64(f.Hedged)
			cancelled += float64(f.DuplicateCancelled)
		}
		if a := o.autoscale; a != nil {
			v["autoscale.scale_actions"] += float64(a.ScaleUps + a.ScaleDowns)
			v["autoscale.replica_s"] += a.ReplicaSeconds
		}
		if a := o.admission; a != nil {
			v["adaptive.degraded"] += float64(a.Degraded)
			v["adaptive.rejected"] += float64(a.Rejected)
		}
	}
	v["engine.accept_per_step"] = st.acceptPerStep()
	v["kvcache.prefix_hit_pct"] = 100 * ratio(hits, lookups)
	v["faults.hedged"] = hedged
	v["faults.hedge_cancelled_pct"] = 100 * ratio(cancelled, hedged)
	return v
}

// perLayer lists the per-layer metrics in report order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sched.iterate_calls", "count"}, {"sched.iterate_us_p50", "us"},
		{"sched.iterate_us_p99", "us"}, {"sched.self_s", "s"},
		{"cluster.route_calls", "count"}, {"cluster.route_us_p50", "us"}, {"cluster.route_us_p99", "us"},
		{"serve.source_s", "s"}, {"obs.observe_s", "s"}, {"obs.events", "count"},
		{"faults.tick_s", "s"}, {"autoscale.tick_s", "s"}, {"adaptive.admit_s", "s"},
		{"serve.self_s", "s"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"cpu_pct." + l, "%"})
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"alloc_pct." + l, "%"})
	}
	return append(defs,
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"engine.sim_spec_s", "s"}, metricDef{"engine.sim_verify_s", "s"},
		metricDef{"engine.sim_prefill_s", "s"}, metricDef{"sched.sim_cpu_s", "s"},
		metricDef{"engine.accept_per_step", "tok"},
		metricDef{"kvcache.prefix_hit_pct", "%"}, metricDef{"kvcache.saved_tok", "tok"},
		metricDef{"kvcache.evictions", "count"}, metricDef{"kvcache.host_reloads", "count"},
		metricDef{"kvcache.reload_stall_s", "s"},
		metricDef{"faults.retried", "count"}, metricDef{"faults.dropped", "count"},
		metricDef{"faults.hedged", "count"}, metricDef{"faults.hedge_cancelled_pct", "%"},
		metricDef{"autoscale.scale_actions", "count"}, metricDef{"autoscale.replica_s", "s"},
		metricDef{"adaptive.degraded", "count"}, metricDef{"adaptive.rejected", "count"},
		metricDef{"cluster.imbalance", "ratio"},
		metricDef{"trace.compile_s", "s"}, metricDef{"workload.generate_s", "s"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}()
