package main

// The three workloads, and why they were chosen.
//
// The program under test is the deterministic simulator. Each workload is
// one scenario the simulator is used for, sized to finish at least 1000
// requests per simulation so a p99 has at least ten samples beyond it, and
// each loads a different set of layers (packages under internal/):
//
//   - spec-decode: one AdaServe replica (Llama-3.1-70B on 4xA100, Table 1)
//     replays the Table 2 default mix on the Figure 7 real-shape arrival
//     trace at 4.2 requests/s, with no observers, controllers or prefix
//     cache. Most host CPU (over 80% in the per-layer table) sits in draft
//     distributions, beam search, selection and verification (lm, toktree,
//     core, engine); the cluster, the controllers and obs do nothing. It is
//     the observer-free hot path that must never get slower.
//   - ctrl-chaos: a 4-replica elastic Sarathi-Serve fleet (the strongest
//     non-speculative baseline) behind slo-aware routing replays the
//     committed bursty workload spec, compiled at this benchmark's length
//     and seed, through a straggler and a repaired crash under retry+hedge
//     recovery, rate-prop autoscaling and the admission gate, with the span
//     recorder and metrics exporter subscribed. Speculation is bypassed
//     (toktree and core stay idle), so serve, cluster, faults, autoscale,
//     adaptive and obs do most of the work.
//   - prefix-sessions: a 4-replica AdaServe fleet with shared-prefix caching
//     and a host tier behind prefix-affinity routing serves closed-loop
//     multi-turn sessions (each follow-up submitted when the previous turn
//     finishes). There are enough tenants that the shared-prefix working set
//     exceeds GPU KV, so cold blocks are evicted and reloaded from the host
//     tier; the router probes every replica on every arrival. In the other
//     two workloads kvcache only allocates and frees, so a KV-cache or router
//     change that helps one use and costs the other shows up.
//
// Predicted moves for the open ROADMAP items:
//
//   - Item 2 (a cheaper synthetic-LM miss path) raises sim_tok_per_host_s and
//     lowers alloc_mb on spec-decode and prefix-sessions, and leaves
//     ctrl-chaos flat: Sarathi-Serve never drafts. Simulated metrics must not
//     move at all (the digest stays the same).
//   - Item 3 (one controller protocol, one cluster kind, one scenario path)
//     moves nothing: it is a refactor, and every simulated digest must stay
//     byte-identical.
//   - Item 5 (decision events and phase attribution) costs only ctrl-chaos,
//     the one workload with observers and controllers subscribed;
//     spec-decode stays observer-free and must not slow down.
//
// Known exclusion: a fleet with no routable prefill-capable replica aborts
// the run (cluster.Dispatch, ROADMAP item 4). ctrl-chaos never takes every
// replica down: one replica crashes, another straggles but stays alive, and
// the autoscaler keeps at least two replicas committed. Adding an outage
// phase once item 4 lands is its own benchmark change.

import (
	"fmt"
	"strings"

	"adaserve/internal/adaptive"
	"adaserve/internal/autoscale"
	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
	"adaserve/internal/faults"
	"adaserve/internal/gpu"
	"adaserve/internal/mathutil"
	"adaserve/internal/obs"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
	"adaserve/internal/trace"
	"adaserve/internal/workload"
)

// Workload sizes. Each simulation finishes at least 1000 requests.
//
// prefix-sessions: tenants arrive every prefixSpacing seconds and think
// prefixThink seconds between turns, so nearly all 500 are live at once,
// each holding a 4096-token system prompt plus its conversation: about 2.2M
// cached tokens against 4 x 491k tokens of GPU KV (Llama-3.1-70B on 4xA100).
// A 16384-block host tier per replica catches the evicted blocks, so a
// returning tenant reloads instead of recomputing. Spreading the arrivals
// keeps the first-turn prefills (2M tokens) from swamping the fleet.
const (
	specDecodeRPS      = 4.2
	specDecodeDuration = 300.0

	chaosReplicas      = 4
	chaosInitialActive = 3
	chaosDuration      = 240.0
	chaosRouter        = "slo-aware"
	chaosSpec          = "bursty"

	prefixReplicas     = 4
	prefixTenants      = 500
	prefixSystemPrompt = 4096
	prefixTurns        = 3
	prefixHostBlocks   = 16384
	prefixThink        = 90.0
	prefixSpacing      = 0.6

	minFinished = 1000
)

// workloadDef is one benchmark workload: how to build a simulation for a
// seed, and the check that proves the workload loads the layer it exists
// for.
type workloadDef struct {
	name string
	// build assembles a ready-to-run simulation. tr is nil for the untraced
	// runs; when set, every seam the benchmark can reach is wrapped.
	build func(seed uint64, tr *tracer) (*scenario, error)
	// seeds is the number of input seeds one pass simulates: pooling their
	// requests keeps the simulated tail metrics steady from one --seed to
	// the next.
	seeds int
	// loaded fails when the workload's layer sat idle over a whole pass.
	loaded func(pass []*outcome) error
}

// scenario is one built simulation, ready to run once.
type scenario struct {
	srv *serve.Server
	src serve.Source
	// collect gathers the simulated outcome of the completed run.
	collect func(rr *serve.Result) (*outcome, error)
}

func workloads() []workloadDef {
	return []workloadDef{
		{
			name:   "spec-decode",
			build:  buildSpecDecode,
			seeds:  28,
			loaded: func([]*outcome) error { return nil },
		},
		{
			name:   "ctrl-chaos",
			build:  buildCtrlChaos,
			seeds:  18,
			loaded: chaosLoaded,
		},
		{
			name:   "prefix-sessions",
			build:  buildPrefixSessions,
			seeds:  6,
			loaded: prefixLoaded,
		},
	}
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// buildSpecDecode is the single-replica AdaServe run on the Figure 7 trace.
func buildSpecDecode(seed uint64, tr *tracer) (*scenario, error) {
	setup := experiments.Llama70B()
	tr.begin(spanGenerate)
	gen, err := experiments.NewGenerator(setup, workload.DefaultMix, 1.0, mix(seed, 1))
	var reqs []*request.Request
	if err == nil {
		reqs = gen.FromTimestamps(workload.RealTrace(mathutil.NewRNG(mix(seed, 2)), specDecodeRPS, specDecodeDuration))
	}
	tr.end()
	if err != nil {
		return nil, err
	}

	sys, err := experiments.Build(experiments.SysAdaServe, setup, experiments.BuildOptions{Seed: mix(seed, 3)})
	if err != nil {
		return nil, err
	}
	if sys, err = wrapSystem(sys, tr); err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.SingleSystem(sys), serve.Options{})
	if err != nil {
		return nil, err
	}
	src, err := serve.NewTraceSource(reqs)
	if err != nil {
		return nil, err
	}
	return &scenario{
		srv: srv,
		src: wrapSource(src, tr),
		collect: func(rr *serve.Result) (*outcome, error) {
			return &outcome{
				offered:    reqs,
				breakdown:  rr.Breakdown,
				iterations: rr.Iterations,
				events:     rr.Events,
			}, nil
		},
	}, nil
}

// chaosFaults is ctrl-chaos's fault schedule, scaled to the run: replica 0
// crashes 30% in and is repaired 15% later; replica 1 runs 3x slow for 40%
// of the run from the half-way mark. At most one replica is ever down. The
// straggler is mild and long enough that several percent of requests decode
// on it, so the TPOT p99 lands inside that population on every seed instead
// of flipping in and out of it.
func chaosFaults(duration float64) string {
	return fmt.Sprintf("crash@%g+%g:r0;slow@%g+%g:r1:x3",
		0.30*duration, 0.15*duration, 0.50*duration, 0.40*duration)
}

// buildCtrlChaos is the elastic Sarathi-Serve fleet under faults, scaling,
// admission and observers.
func buildCtrlChaos(seed uint64, tr *tracer) (*scenario, error) {
	setup := experiments.Llama70B()
	spec, err := experiments.TraceSpec(chaosSpec)
	if err != nil {
		return nil, err
	}
	tr.begin(spanCompile)
	tc, err := trace.Compile(spec, trace.CompileOptions{
		BaselineLatency: setup.BaselineLatency(),
		Duration:        chaosDuration,
		Seed:            mix(seed, 1) | 1, // 0 would fall back to the spec's own seed
	})
	tr.end()
	if err != nil {
		return nil, err
	}

	systems := make([]sched.System, chaosReplicas)
	for i := range systems {
		sys, err := experiments.Build(experiments.SysSarathi, setup, experiments.BuildOptions{Seed: mix(seed, 10+uint64(i))})
		if err != nil {
			return nil, err
		}
		if systems[i], err = wrapSystem(sys, tr); err != nil {
			return nil, err
		}
	}
	router, err := cluster.NewRouter(chaosRouter)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.NewElastic(systems, make([]cluster.Role, chaosReplicas), wrapRouter(router, tr),
		gpu.KVTransfer{Model: setup.Target, Link: experiments.DisaggLink},
		cluster.ElasticOptions{ColdStart: chaosDuration / 20, InitialActive: chaosInitialActive})
	if err != nil {
		return nil, err
	}

	policy, err := autoscale.NewPolicy("rate-prop")
	if err != nil {
		return nil, err
	}
	scaler, err := autoscale.New(cl, policy, autoscale.Options{
		Interval:   chaosDuration / 30,
		Window:     chaosDuration / 8,
		Hysteresis: autoscale.Hysteresis{MinPerPool: 2},
	})
	if err != nil {
		return nil, err
	}
	gate, err := adaptive.New(cl, adaptive.Config{
		Interval:      chaosDuration / 60,
		Window:        chaosDuration / 8,
		DisableTuning: true, // Sarathi-Serve has no speculation envelope
	})
	if err != nil {
		return nil, err
	}
	fspec, err := faults.ParseSpec(chaosFaults(chaosDuration))
	if err != nil {
		return nil, err
	}
	inj, err := faults.New(cl, fspec, faults.Options{
		Seed: mix(seed, 4), Horizon: chaosDuration, Recovery: faults.RecoveryRetryHedge,
	})
	if err != nil {
		return nil, err
	}

	srv, err := serve.NewServer(cl, serve.Options{
		SnapshotEvery: chaosDuration / 60,
		Faults:        wrapInjector(inj, tr),
		Autoscaler:    wrapAutoscaler(scaler, tr),
		Adaptive:      wrapAdmission(gate, tr),
	})
	if err != nil {
		return nil, err
	}
	srv.Subscribe(wrapObserver(obs.NewSpanRecorder(), tr))
	srv.Subscribe(wrapObserver(obs.NewMetricsExporter(), tr))

	src, err := trace.NewSource(tc)
	if err != nil {
		return nil, err
	}
	rec := &recordingSource{Source: src}
	return &scenario{
		srv: srv,
		src: wrapSource(rec, tr),
		collect: func(rr *serve.Result) (*outcome, error) {
			res := cl.Results(rr, nil)
			fs := inj.Summary(rr.EndTime)
			as := gate.Summary()
			return &outcome{
				offered:    rec.popped,
				rejected:   as.Rejected,
				dropped:    fs.Dropped,
				breakdown:  rr.Breakdown,
				iterations: rr.Iterations,
				events:     rr.Events,
				faults:     &fs,
				autoscale:  res.Summary.Autoscale,
				admission:  &as,
				imbalance:  res.Summary.RequestImbalance(),
			}, nil
		},
	}, nil
}

// chaosLoaded proves the control layers acted during the pass: recovery
// re-dispatched or hedged, the autoscaler resized the fleet, and the gate
// rejected.
func chaosLoaded(pass []*outcome) error {
	var recovered, scaled, rejected int
	for _, o := range pass {
		recovered += o.faults.Retried + o.faults.Hedged
		scaled += o.autoscale.ScaleUps + o.autoscale.ScaleDowns
		rejected += o.admission.Rejected
	}
	if recovered == 0 || scaled == 0 || rejected == 0 {
		return fmt.Errorf("control layers idle: %d retried or hedged, %d scale actions, %d rejected",
			recovered, scaled, rejected)
	}
	return nil
}

// buildPrefixSessions is the closed-loop session workload on the
// prefix-cached fleet.
func buildPrefixSessions(seed uint64, tr *tracer) (*scenario, error) {
	setup := experiments.Llama70B()
	tr.begin(spanGenerate)
	sessions, err := workload.NewSessions(workload.SessionsConfig{
		Seed:            mix(seed, 1),
		Tenants:         prefixTenants,
		SystemPromptLen: prefixSystemPrompt,
		Turns:           prefixTurns,
		Category:        request.Chat,
		BaselineLatency: setup.BaselineLatency(),
		ArrivalSpacing:  prefixSpacing,
		ThinkTime:       prefixThink,
	})
	var initial []*request.Request
	if err == nil {
		initial = sessions.InitialRequests()
	}
	tr.end()
	if err != nil {
		return nil, err
	}

	systems := make([]sched.System, prefixReplicas)
	for i := range systems {
		sys, err := experiments.Build(experiments.SysAdaServe, setup, experiments.BuildOptions{
			Seed: mix(seed, 10+uint64(i)), Prefix: true, PrefixHostBlocks: prefixHostBlocks,
		})
		if err != nil {
			return nil, err
		}
		if systems[i], err = wrapSystem(sys, tr); err != nil {
			return nil, err
		}
	}
	cl, err := cluster.New(systems, wrapRouter(cluster.PrefixAffinity{}, tr))
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(cl, serve.Options{})
	if err != nil {
		return nil, err
	}
	src := serve.NewSubmitSource()
	offered := append([]*request.Request(nil), initial...)
	for _, r := range initial {
		if err := src.Submit(r); err != nil {
			return nil, err
		}
	}
	var submitErr error
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) {
		e, ok := ev.(serve.RequestFinished)
		if !ok {
			return
		}
		if next := sessions.FollowUp(e.Req, e.Time); next != nil {
			offered = append(offered, next)
			if err := src.Submit(next); err != nil && submitErr == nil {
				submitErr = err
			}
		}
	}))
	return &scenario{
		srv: srv,
		src: wrapSource(src, tr),
		collect: func(rr *serve.Result) (*outcome, error) {
			if submitErr != nil {
				return nil, submitErr
			}
			res := cl.Results(rr, nil)
			return &outcome{
				offered:    offered,
				breakdown:  rr.Breakdown,
				iterations: rr.Iterations,
				events:     rr.Events,
				prefix:     res.Summary.Prefix,
				imbalance:  res.Summary.RequestImbalance(),
			}, nil
		},
	}, nil
}

// prefixLoaded proves the shared store worked under pressure during the
// pass: cold blocks were evicted and reloaded from the host tier.
func prefixLoaded(pass []*outcome) error {
	var evictions, reloads int
	for _, o := range pass {
		if o.prefix != nil {
			evictions += o.prefix.Evictions
			reloads += o.prefix.Reloads
		}
	}
	if evictions == 0 || reloads == 0 {
		return fmt.Errorf("prefix cache idle: %d evictions, %d host reloads", evictions, reloads)
	}
	return nil
}

// recordingSource remembers every request the server pops: the offered
// population, rejected arrivals included.
type recordingSource struct {
	serve.Source
	popped []*request.Request
}

func (s *recordingSource) Pop() *request.Request {
	r := s.Source.Pop()
	s.popped = append(s.popped, r)
	return r
}
