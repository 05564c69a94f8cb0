// adaserve-sim runs one serving configuration over one synthesized workload
// and dumps the full metric summary — the single-run counterpart of
// adaserve-bench's sweeps. Every run goes through the unified event-driven
// driver (internal/serve); unknown flag values fail fast with a one-line
// error.
//
// By default the workload is a closed trace replay (the paper's bursty
// real-world shape). With -rate-profile the run is open-loop instead:
// arrivals are synthesized on the fly from a time-varying Poisson process
// (constant, ramp, spike, diurnal), so the trace is never materialized.
// With -live the run streams periodic snapshots — windowed attainment and
// goodput per SLO class — plus SLO-violation events as they become certain.
//
// With -replicas > 1 it runs a multi-replica cluster instead: N independent
// copies of the system behind the chosen router policy, fed from one global
// arrival stream, reporting cluster-aggregate and per-replica metrics. In
// cluster mode -rps is the per-replica rate (the workload carries
// rps × replicas requests per second).
//
// With -roles the cluster is disaggregated: "-roles 2P2D" runs two dedicated
// prefill replicas and two dedicated decode replicas, migrating each request
// at prefill completion over the modeled interconnect. -roles implies the
// replica count; setting -replicas to a contradictory value is an error.
//
// With -autoscale the fleet is elastic: -replicas/-roles define the capacity
// fleet, the run starts at one active replica per role pool, and the chosen
// policy (target-queue, rate-prop, slo-feedback) scales within the capacity
// — provisioning cold starts, drain migrations and all. -live then also
// shows the fleet size and every scale event.
//
// With -adaptive a closed-loop controller retunes AdaServe's speculation
// envelope (depth/width ceilings) from rolling acceptance and windowed SLO
// attainment; with -admission an overload gate degrades or rejects arrivals
// the saturated fleet provably cannot serve. The two compose (the full
// closed loop) and -live streams every degrade/reject decision.
//
// With -prefix the run replays the multi-turn session workload (per-tenant
// shared system prompts, each follow-up turn re-sending the full prior
// conversation, submitted closed-loop as turns finish) with shared-prefix KV
// caching enabled: admitted requests skip prefill for any prompt prefix whose
// blocks are already resident, and cold blocks spill to a host offload tier
// sized by -prefix-tier (reloads pay the modeled interconnect). -live then
// also streams [pfx] hit/evict/reload lines.
//
// With -trace the run replays a recorded trace file (format v1, see
// internal/trace) as its arrival stream; with -spec it first compiles a
// declarative workload spec into such a trace (deterministic per -seed, with
// -duration overriding the spec's when set). With -export any run records
// its admitted arrival stream to a trace file afterward, closing the loop:
// an open-loop run exported once replays identically forever. -trace, -spec,
// -rate-profile and -prefix each pick the workload source, so at most one
// may be set; trace replay ignores -rps and -urgent (the file carries the
// arrivals).
//
// With -faults the run replays a deterministic failure schedule — replica
// crashes, stragglers, KV-transfer link faults, or a Poisson crash hazard —
// and -recovery picks the response: none, retry (timeout detection, budgeted
// re-dispatch with backoff, failover), or retry+hedge (plus duplicate
// dispatches for TTFT-at-risk requests on suspect replicas). Cluster mode
// only; -live then also streams every crash, recovery, retry and hedge.
//
// Usage:
//
//	adaserve-sim -system AdaServe -model llama -rps 3.8 -duration 120
//	adaserve-sim -system "vLLM-Spec (6)" -urgent 0.7 -slo-scale 0.8
//	adaserve-sim -rate-profile spike -live
//	adaserve-sim -replicas 4 -router slo-aware -live
//	adaserve-sim -roles 2P2D -router least-loaded
//	adaserve-sim -replicas 4 -autoscale rate-prop -rate-profile diurnal -live
//	adaserve-sim -replicas 2 -adaptive -admission -rate-profile spike -live
//	adaserve-sim -replicas 4 -faults "crash@30+10:r0" -recovery retry+hedge -live
//	adaserve-sim -replicas 3 -router prefix-affinity -prefix -live
//	adaserve-sim -spec internal/experiments/testdata/specs/bursty.spec -replicas 2 -admission
//	adaserve-sim -trace recorded.trace -replicas 2 -live
//	adaserve-sim -rate-profile spike -export spike.trace
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"adaserve/internal/adaptive"
	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
	"adaserve/internal/faults"
	"adaserve/internal/kvcache"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/obs"
	"adaserve/internal/prof"
	"adaserve/internal/request"
	"adaserve/internal/serve"
	"adaserve/internal/trace"
	"adaserve/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the usage is already printed
	}
	if err != nil {
		log.Fatal(err)
	}
}

// loadReplayTrace builds the replay trace behind -trace/-spec (exactly one
// path is non-empty): a trace file parses as-is, a spec file compiles against
// the model setup's class SLOs, with -duration overriding the spec's only
// when explicitly set and the run seed governing compilation.
func loadReplayTrace(tracePath, specPath string, setup experiments.ModelSetup,
	duration float64, durationSet bool, seed uint64) (*trace.Trace, error) {
	if tracePath != "" {
		data, err := os.ReadFile(tracePath)
		if err != nil {
			return nil, err
		}
		tr, err := trace.Parse(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tracePath, err)
		}
		return tr, nil
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	spec, err := trace.ParseSpec(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	if !durationSet {
		duration = 0 // keep the spec's
	}
	return trace.Compile(spec, trace.CompileOptions{
		BaselineLatency: setup.BaselineLatency(),
		Duration:        duration,
		Seed:            seed,
	})
}

// resolveAdaptive maps the -adaptive/-admission pair to a controller config:
// nil when both are off, tuning-only or admission-only when one is set, the
// full closed loop when both are. Timing follows the adaptive experiment's
// duration-proportional cadence.
func resolveAdaptive(tuning, admission bool, duration float64) *adaptive.Config {
	if !tuning && !admission {
		return nil
	}
	return &adaptive.Config{
		Interval:         experiments.AdaptiveInterval(duration),
		Window:           experiments.AutoscaleWindow(duration),
		DisableTuning:    !tuning,
		DisableAdmission: !admission,
	}
}

// cli is a parsed command line: the scenario it describes plus the knobs
// only the command reads (closed-trace synthesis, banners, output files).
type cli struct {
	sc                  experiments.Scenario
	rps                 float64 // total offered rate
	mix                 workload.Mix
	sloScale            float64
	tracePath, specPath string
	prefix              bool
	prefixTier          int
	live, percentiles   bool
	export              string
	spanOut, metricsOut string

	// cpuProfile and memProfile are the -cpuprofile/-memprofile paths.
	cpuProfile, memProfile string
}

// parseArgs maps the flags onto a Scenario and validates it, before any
// workload is synthesized or any line is printed. A -trace/-spec file is read
// here because the replayed span sets every controller's cadence.
func parseArgs(args []string) (*cli, error) {
	fs := flag.NewFlagSet("adaserve-sim", flag.ContinueOnError)
	system := fs.String("system", "AdaServe", "serving system name (AdaServe, vLLM, Sarathi-Serve, vLLM-Spec (4|6|8), vLLM + Priority, FastServe, VTC, AdaServe (interleaved))")
	model := fs.String("model", "llama", "model setup: llama or qwen")
	rps := fs.Float64("rps", 3.8, "mean request rate (per replica in cluster mode)")
	duration := fs.Float64("duration", 120, "trace duration in seconds")
	urgent := fs.Float64("urgent", 0, "urgent-request proportion (0 = default 60/20/20 mix)")
	sloScale := fs.Float64("slo-scale", 1.0, "scale applied to the most urgent SLO")
	replicas := fs.Int("replicas", 1, "number of serving replicas (cluster mode when > 1)")
	router := fs.String("router", "slo-aware", "cluster router policy: round-robin, least-loaded, slo-aware, prefix-affinity")
	rolesFlag := fs.String("roles", "", "disaggregated role split, e.g. 2P2D (implies the replica count)")
	autoscaleFlag := fs.String("autoscale", "", "elastic-fleet scaling policy: target-queue, rate-prop, slo-feedback (empty: static fleet)")
	adaptiveFlag := fs.Bool("adaptive", false, "close the loop: retune the speculation envelope from rolling acceptance and attainment (AdaServe only)")
	admissionFlag := fs.Bool("admission", false, "arm the overload gate: degrade or reject arrivals a saturated fleet cannot serve")
	prefixFlag := fs.Bool("prefix", false, "enable shared-prefix KV caching and replay the closed-loop multi-turn session workload")
	prefixTier := fs.Int("prefix-tier", experiments.PrefixHostTier, "host offload tier size in KV blocks for -prefix (0: GPU-only, evicted prefixes are dropped)")
	faultsFlag := fs.String("faults", "", `fault schedule, e.g. "crash@30+10:r0; slow@60+20:x4; link@40+30:p0.3; hazard@0.01+10" (cluster mode only)`)
	recoveryFlag := fs.String("recovery", "retry", "fault recovery mode: none, retry, retry+hedge")
	profile := fs.String("rate-profile", "", "open-loop arrival shape: constant, ramp, spike, diurnal (empty: closed trace replay)")
	traceFlag := fs.String("trace", "", "replay a recorded trace file (format v1) as the arrival stream")
	specFlag := fs.String("spec", "", "compile a declarative workload spec into the arrival stream (deterministic per -seed)")
	exportFlag := fs.String("export", "", "write the run's admitted arrival stream to a trace file afterward")
	live := fs.Bool("live", false, "stream periodic rolling-metric snapshots and SLO-violation events")
	snapEvery := fs.Float64("snapshot-every", 5, "simulated seconds between -live snapshots")
	spanOut := fs.String("span-out", "", "write per-request span timelines (Chrome/Perfetto trace-event JSON) to this file")
	metricsOut := fs.String("metrics-out", "", "write run metrics to this file: .json = JSON series, anything else = Prometheus text exposition")
	percentiles := fs.Bool("percentiles", false, "print the per-class latency percentile table after the run")
	seed := fs.Uint64("seed", 1, "random seed")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var setup experiments.ModelSetup
	switch *model {
	case "llama":
		setup = experiments.Llama70B()
	case "qwen":
		setup = experiments.Qwen32B()
	default:
		return nil, fmt.Errorf("unknown model %q (llama, qwen)", *model)
	}
	if *replicas < 1 {
		return nil, fmt.Errorf("-replicas %d: need at least 1", *replicas)
	}
	if *snapEvery <= 0 {
		return nil, fmt.Errorf("-snapshot-every %g: need a positive interval", *snapEvery)
	}
	if *traceFlag != "" && *specFlag != "" {
		return nil, fmt.Errorf("-trace and -spec each pick the workload source; set at most one")
	}
	c := &cli{
		mix: workload.DefaultMix, sloScale: *sloScale,
		tracePath: *traceFlag, specPath: *specFlag,
		prefix: *prefixFlag, prefixTier: *prefixTier,
		live: *live, percentiles: *percentiles,
		export: *exportFlag, spanOut: *spanOut, metricsOut: *metricsOut,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
	}
	if *urgent > 0 {
		c.mix = workload.UrgentMix(*urgent)
	}
	sc := experiments.Scenario{
		System: experiments.SystemKind(*system), Setup: setup, Seed: *seed, Duration: *duration,
		Router: *router, Autoscale: *autoscaleFlag,
	}
	var err error
	if *rolesFlag != "" {
		if sc.Roles, err = cluster.ParseSplit(*rolesFlag); err != nil {
			return nil, err
		}
	}
	if set["replicas"] || len(sc.Roles) == 0 {
		sc.Replicas = *replicas
	}
	c.rps = *rps * float64(sc.Size())
	if sc.Faults, err = faults.ParseSpec(*faultsFlag); err != nil {
		return nil, err
	}
	if sc.Recovery, err = faults.ParseRecovery(*recoveryFlag); err != nil {
		return nil, err
	}
	if *prefixFlag || set["prefix-tier"] {
		sc.Build = experiments.BuildOptions{Prefix: *prefixFlag, PrefixHostBlocks: *prefixTier}
	}
	if *prefixFlag {
		sessions, err := experiments.NewSessions(setup, *seed)
		if err != nil {
			return nil, err
		}
		sc.Sessions = sessions
	}
	if *profile != "" {
		sc.OpenLoop = &experiments.OpenLoop{Profile: *profile, MeanRPS: c.rps, Mix: c.mix, SLOScale: *sloScale, GenSalt: 0x51e}
	}
	if *traceFlag != "" || *specFlag != "" {
		if sc.Replay, err = loadReplayTrace(*traceFlag, *specFlag, setup, *duration, set["duration"], *seed); err != nil {
			return nil, err
		}
		// Controller cadences and the fault horizon follow the replayed
		// trace's span, not the synthetic default.
		sc.Duration = sc.Replay.Duration()
	}
	sc.Adaptive = resolveAdaptive(*adaptiveFlag, *admissionFlag, sc.Duration)
	if *live || *metricsOut != "" {
		// The metrics exporter's series is the same snapshot grid -live tails.
		sc.SnapshotEvery = *snapEvery
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	c.sc = sc
	return c, nil
}

// run parses args and drives one simulation, writing every report line to w.
func run(args []string, w io.Writer) (err error) {
	c, err := parseArgs(args)
	if err != nil {
		return err
	}
	stopProf, err := prof.Start(c.cpuProfile, c.memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()
	sc := &c.sc
	fmt.Fprintf(w, "model: %s (baseline %.1f ms/token)\n", sc.Setup.Name, 1e3*sc.Setup.BaselineLatency())
	switch {
	case sc.Replay != nil:
		st := sc.Replay.Stats()
		what := "replaying " + c.tracePath
		if c.specPath != "" {
			what = fmt.Sprintf("compiled %s (seed %d)", c.specPath, sc.Replay.Header.Seed)
		}
		fmt.Fprintf(w, "trace: %s: %d arrivals over %.1fs (mean %.2f rps, %d classes; -rps ignored)\n",
			what, st.Arrivals, sc.Replay.Duration(), st.MeanRPS, len(sc.Replay.Header.Classes))
	case sc.Sessions != nil:
		fmt.Fprintf(w, "workload: %d multi-turn sessions, closed-loop follow-ups (host tier %d blocks; -duration and -rps ignored)\n",
			experiments.PrefixTenants, c.prefixTier)
	case sc.OpenLoop != nil:
		fmt.Fprintf(w, "workload: open-loop %s profile, mean %.2f rps over %.0fs\n", sc.OpenLoop.Profile, c.rps, sc.Duration)
	default:
		gen, err := experiments.NewGenerator(sc.Setup, c.mix, c.sloScale, mathutil.Hash2(sc.Seed, 0x51e))
		if err != nil {
			return err
		}
		sc.Trace = gen.FromTimestamps(workload.RealTrace(mathutil.NewRNG(mathutil.Hash2(sc.Seed, 0x7a)), c.rps, sc.Duration))
		st := workload.StreamStats(sc.Trace)
		fmt.Fprintf(w, "trace: %d requests, %.2f rps, mean prompt %.0f, mean output %.0f\n",
			st.Requests, st.MeanRPS, st.MeanPrompt, st.MeanOutput)
	}
	if !sc.Faults.Empty() {
		fmt.Fprintf(w, "faults: %s [recovery %s]\n", sc.Faults, sc.Recovery)
	}
	if sc.Autoscale != "" {
		fmt.Fprintf(w, "autoscale: %s policy over a %d-replica capacity fleet (cold start %.1fs, decisions every %.1fs)\n",
			sc.Autoscale, sc.Size(), experiments.AutoscaleColdStart(sc.Duration), experiments.AutoscaleInterval(sc.Duration))
	}
	if cfg := sc.Adaptive; cfg != nil {
		var parts []string
		if !cfg.DisableTuning {
			parts = append(parts, "speculation tuning")
		}
		if !cfg.DisableAdmission {
			parts = append(parts, "overload admission")
		}
		fmt.Fprintf(w, "adaptive: %s (retune every %.1fs, %.1fs windows)\n",
			strings.Join(parts, " + "), cfg.Interval, cfg.Window)
	}

	var exporter *trace.Exporter
	if c.export != "" {
		exporter = trace.NewExporter(trace.ExportOptions{Seed: sc.Seed, Source: "export:adaserve-sim"})
		sc.Observers = append(sc.Observers, exporter)
	}
	var spans *obs.SpanRecorder
	if c.spanOut != "" {
		spans = obs.NewSpanRecorder()
		sc.Observers = append(sc.Observers, spans)
	}
	var mexp *obs.MetricsExporter
	if c.metricsOut != "" {
		mexp = obs.NewMetricsExporter()
		sc.Observers = append(sc.Observers, mexp)
	}
	if c.live {
		fmt.Fprintln(w)
		sc.Live = func(b serve.Backend) serve.Observer {
			cl, _ := b.(*cluster.Cluster)
			pfx := prefixStatsFn(c.prefix, b)
			return serve.ObserverFunc(func(ev serve.Event) { liveEvent(w, ev, cl, pfx) })
		}
	}
	res, err := sc.Run()
	if err != nil {
		return err
	}
	if exporter != nil {
		tr, err := exporter.Trace()
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.export, []byte(tr.Format()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "exported %d admitted arrivals to %s\n", len(tr.Arrivals), c.export)
	}

	if res.Cluster != nil {
		printCluster(w, res.Cluster, sc.Size())
	} else {
		printSingle(w, res.Summary, res.Serve)
		if res.Adaptive != nil {
			fmt.Fprintln(w, res.Adaptive.Summary().String())
		}
		if pfx := prefixStatsFn(c.prefix, res.Backend); pfx != nil {
			fmt.Fprintln(w, pfx().String())
		}
	}
	return finishObs(w, spans, c.spanOut, mexp, c.metricsOut, c.percentiles, res.Summary)
}

// finishObs renders the observability outputs after the run: the Perfetto
// span-timeline file (-span-out), the metrics export in the format the
// -metrics-out extension selects, and the -percentiles latency table.
func finishObs(w io.Writer, spans *obs.SpanRecorder, spanPath string, mexp *obs.MetricsExporter, metricsPath string, percentiles bool, sum *metrics.Summary) error {
	if spans != nil {
		var buf bytes.Buffer
		if err := spans.WriteTrace(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(spanPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d span timelines to %s (load in ui.perfetto.dev or chrome://tracing)\n",
			len(spans.Timelines()), spanPath)
	}
	if mexp != nil {
		var buf bytes.Buffer
		var err error
		if strings.HasSuffix(metricsPath, ".json") {
			err = mexp.WriteJSON(&buf, sum)
		} else {
			err = mexp.WritePrometheus(&buf, sum)
		}
		if err == nil {
			err = os.WriteFile(metricsPath, buf.Bytes(), 0o644)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d metric snapshots + terminal summary to %s\n", len(mexp.Snapshots()), metricsPath)
	}
	if percentiles {
		fmt.Fprintln(w)
		fmt.Fprint(w, obs.PercentileTable(sum))
	}
	return nil
}

// kvPrefixStatser is implemented by every scheduler through the shared base.
type kvPrefixStatser interface {
	KVPrefixStats() (kvcache.PrefixStats, bool)
}

// prefixStatsFn returns a poller that sums the live prefix-cache counters
// across the backend's replicas into a printable summary, or nil when -prefix
// is off.
func prefixStatsFn(on bool, b serve.Backend) func() *metrics.PrefixSummary {
	if !on {
		return nil
	}
	return func() *metrics.PrefixSummary {
		tot := &metrics.PrefixSummary{}
		for _, in := range b.Instances() {
			p, ok := in.System().(kvPrefixStatser)
			if !ok {
				continue
			}
			st, enabled := p.KVPrefixStats()
			if !enabled {
				continue
			}
			tot.Add(metrics.PrefixSummary{
				Lookups: st.Lookups, Hits: st.Hits, HitTokens: st.HitTokens,
				Evictions: st.Evictions, HostEvictions: st.HostEvictions,
				Reloads: st.Reloads, ReloadedTokens: st.ReloadedTokens,
				ReloadStallTime: st.ReloadStall,
			})
		}
		return tot
	}
}

// liveEvent renders the -live stream: one line per rolling-metric snapshot
// (with the fleet size when the cluster is elastic, plus a [pfx] cache line
// when -prefix is on), SLO violations the moment they become certain, and
// every autoscaler action.
func liveEvent(w io.Writer, ev serve.Event, cl *cluster.Cluster, pfx func() *metrics.PrefixSummary) {
	switch e := ev.(type) {
	case serve.Snapshot:
		s := e.Stats
		tag := "live"
		if e.Final {
			tag = "done"
		}
		fmt.Fprintf(w, "[%s t=%7.1fs] run %3d wait %3d | finished %5d/%5d | attain %5.1f%% (win %5.1f%%) | goodput %7.1f tok/s (win %7.1f)",
			tag, e.Time, s.Running, s.Queued, s.Finished, s.Admitted,
			100*s.Attainment(), 100*s.WindowAttainment(), s.Goodput, s.WindowGoodput)
		if s.WindowTPOTTail.Count > 0 {
			fmt.Fprintf(w, " | p99 TPOT %5.1fms (win %5.1fms)", 1e3*s.TPOTTail.P99, 1e3*s.WindowTPOTTail.P99)
		}
		if cl != nil && cl.Elastic() {
			fmt.Fprintf(w, " | %s", fleetString(cl))
		}
		for cat := 0; cat < request.NumCategories; cat++ {
			c := s.PerClass[cat]
			if c.WindowFinished > 0 {
				fmt.Fprintf(w, " | %s %.0f%%", request.Category(cat), 100*c.WindowAttainment())
			}
		}
		fmt.Fprintln(w)
		if pfx != nil {
			fmt.Fprintf(w, "[pfx  t=%7.1fs] %s\n", e.Time, pfx())
		}
	case serve.SLOViolated:
		fmt.Fprintf(w, "[viol t=%7.1fs] request %d (%s) missed its %s SLO\n",
			e.Time, e.Req.ID, e.Req.Category, e.Kind)
	case serve.RequestRejected:
		fmt.Fprintf(w, "[admt t=%7.1fs] request %d (%s) rejected: %s\n",
			e.Time, e.Req.ID, e.Req.Category, e.Reason)
	case serve.RequestDegraded:
		fmt.Fprintf(w, "[admt t=%7.1fs] request %d degraded %s -> %s: %s\n",
			e.Time, e.Req.ID, e.From, e.To, e.Reason)
	case serve.ScaleUp:
		fmt.Fprintf(w, "[scal t=%7.1fs] +replica %d (%s): %s -> fleet %d\n",
			e.Time, e.Action.Instance, e.Action.Role, e.Action.Reason, e.Action.Fleet)
	case serve.ScaleDown:
		fmt.Fprintf(w, "[scal t=%7.1fs] -replica %d (%s): %s -> fleet %d\n",
			e.Time, e.Action.Instance, e.Action.Role, e.Action.Reason, e.Action.Fleet)
	case serve.ReplicaFailed:
		fmt.Fprintf(w, "[falt t=%7.1fs] replica %d crashed (%s), %d resident requests frozen\n",
			e.Time, e.Instance, e.Reason, e.Lost)
	case serve.ReplicaRecovered:
		fmt.Fprintf(w, "[falt t=%7.1fs] replica %d recovered after %.1fs down\n",
			e.Time, e.Instance, e.Downtime)
	case serve.RequestRetried:
		fmt.Fprintf(w, "[falt t=%7.1fs] request %d retried (attempt %d) on replica %d\n",
			e.Time, e.Req.ID, e.Attempt, e.Instance)
	case serve.RequestHedged:
		fmt.Fprintf(w, "[falt t=%7.1fs] request %d hedged onto replica %d\n",
			e.Time, e.Req.ID, e.Instance)
	case serve.RequestMigrated:
		fmt.Fprintf(w, "[mig  t=%7.1fs] request %d KV %d -> %d (%.1f MB in %.1f ms)\n",
			e.Time, e.Req.ID, e.From, e.To, e.Bytes/1e6, 1e3*(e.Time-e.Depart))
	}
}

// fleetString renders an elastic fleet's occupancy, e.g. "fleet 3/4 (+1 prov)".
func fleetString(cl *cluster.Cluster) string {
	active, prov, draining, failed := 0, 0, 0, 0
	for _, rep := range cl.Replicas() {
		switch rep.State() {
		case cluster.StateActive:
			active++
		case cluster.StateProvisioning:
			prov++
		case cluster.StateDraining:
			draining++
		case cluster.StateFailed:
			failed++
		}
	}
	s := fmt.Sprintf("fleet %d/%d", active, cl.Size())
	if prov > 0 {
		s += fmt.Sprintf(" (+%d prov)", prov)
	}
	if draining > 0 {
		s += fmt.Sprintf(" (-%d drain)", draining)
	}
	if failed > 0 {
		s += fmt.Sprintf(" (%d failed)", failed)
	}
	return s
}

func printSingle(w io.Writer, s *metrics.Summary, rr *serve.Result) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, s)
	fmt.Fprintf(w, "\nthroughput %.1f tok/s | mean TTFT %.2fs | p50 TPOT %.1fms | p99 TPOT %.1fms\n",
		s.Throughput, s.MeanTTFT, 1e3*s.P50TPOT(), 1e3*s.P99TPOT())
	b := s.Breakdown
	fmt.Fprintf(w, "breakdown: scheduling %.2f%%, speculation %.1f%%, verification %.1f%%, prefill %.1f%%\n",
		100*b.Scheduling/b.Total(), 100*b.Speculation/b.Total(),
		100*b.Verification/b.Total(), 100*b.Prefill/b.Total())
	fmt.Fprintf(w, "simulated: %.1fs over %d iterations\n", rr.EndTime, rr.Iterations)
}

func printCluster(w io.Writer, res *cluster.Result, n int) {
	s := res.Summary
	fmt.Fprintln(w)
	fmt.Fprintln(w, s)
	fmt.Fprintf(w, "\ncluster: attainment %.1f%% | TTFT attainment %.1f%% | goodput %.1f tok/s | request imbalance %.2f\n",
		100*s.Attainment(), 100*s.TTFTAttainment(), s.Goodput(), s.RequestImbalance())
	fmt.Fprintf(w, "throughput %.1f tok/s | mean TTFT %.2fs | p50 TPOT %.1fms | p99 TPOT %.1fms\n",
		s.Aggregate.Throughput, s.Aggregate.MeanTTFT, 1e3*s.Aggregate.P50TPOT(), 1e3*s.Aggregate.P99TPOT())
	for _, rs := range s.Roles {
		if rs.Role == "mixed" && s.Transfer.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "role %-8s x%d: %s, %s\n", rs.Role, rs.Replicas,
			stageStat(rs.PrefillRequests, "prefills", "TTFT attain", rs.TTFTAttainment()),
			stageStat(rs.DecodeRequests, "decodes", "TPOT attain", rs.TPOTAttainment()))
	}
	if s.Transfer.Count > 0 {
		fmt.Fprintf(w, "KV transfers: %d over %s, %.1f GB total, mean %.1f ms\n",
			s.Transfer.Count, experiments.DisaggLink.Name, s.Transfer.Bytes/1e9, 1e3*s.Transfer.MeanLatency())
	}
	if s.Autoscale != nil && s.Autoscale.Policy != "" {
		fmt.Fprintf(w, "autoscale %s\n", s.Autoscale)
	}
	if s.Admission != nil {
		fmt.Fprintln(w, s.Admission.String())
	}
	if s.Prefix != nil {
		fmt.Fprintln(w, s.Prefix.String())
	}
	if s.Faults != nil {
		fmt.Fprintf(w, "faults %s\n", s.Faults)
	}
	fmt.Fprintf(w, "simulated: %.1fs over %d iterations across %d replicas\n", res.EndTime, res.Iterations, n)
}

// stageStat renders one stage of a role row, eliding the attainment of a
// stage the role never served (an empty denominator is not a 0% failure).
func stageStat(n int, noun, metric string, attain float64) string {
	if n == 0 {
		return fmt.Sprintf("%4d %s", n, noun)
	}
	return fmt.Sprintf("%4d %s (%s %.1f%%)", n, noun, metric, 100*attain)
}
