package experiments

import (
	"fmt"
	"strings"

	"adaserve/internal/adaptive"
	"adaserve/internal/autoscale"
	"adaserve/internal/cluster"
	"adaserve/internal/faults"
	"adaserve/internal/gpu"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
	"adaserve/internal/trace"
	"adaserve/internal/workload"
)

// Scenario is one simulation: a serving system on a fleet behind a router,
// fed by a workload, with optional control. It is the single entry point
// every run goes through — adaserve-sim's flags, each experiment cell and
// the examples all describe a Scenario and call Run, which builds the
// backend, wires the controllers and the source, runs the unified driver
// (internal/serve) and assembles the summary.
type Scenario struct {
	// System is the serving system every replica runs.
	System SystemKind
	// Setup is the model setup (a Table 1 row).
	Setup ModelSetup
	// Seed drives engine randomness (it overrides Build.Seed), the fault
	// schedule and the open-loop arrival stream.
	Seed uint64
	// Duration is the run horizon in simulated seconds: the open-loop
	// arrival window, the fault horizon, and the span every controller
	// cadence (AutoscaleInterval, AutoscaleColdStart, ...) derives from.
	Duration float64

	// Replicas is the colocated fleet size (0 or 1: one system, no
	// cluster). Roles, when set, lays out a role-split fleet and implies its
	// size; a non-zero Replicas must then agree with it.
	Replicas int
	Roles    []cluster.Role
	// Router names the fleet's routing policy (cluster.NewRouter).
	Router string
	// Build tunes every replica's construction.
	Build BuildOptions
	// Elastic makes the fleet elastic: Replicas/Roles become the capacity
	// fleet. With Autoscale set and Elastic nil, the fleet starts at one
	// active replica per role pool with AutoscaleColdStart(Duration) cold
	// starts.
	Elastic *cluster.ElasticOptions

	// Autoscale names the scaling policy (autoscale.NewPolicy; empty: a
	// fixed fleet). Decisions run every AutoscaleInterval(Duration) over
	// AutoscaleWindow(Duration) windows.
	Autoscale string
	// Adaptive, when set, arms the closed-loop speculation controller and
	// overload gate.
	Adaptive *adaptive.Config
	// Faults is the failure schedule (empty: none) and Recovery the
	// response to it.
	Faults   faults.Spec
	Recovery faults.Recovery

	// The workload: at most one of Trace, OpenLoop, Sessions and Replay.
	//
	// Trace is a closed trace replayed to completion. It is a read-only
	// template: Run replays private copies, so one trace can feed many
	// scenarios, and the summary aggregates in trace order.
	Trace []*request.Request
	// OpenLoop synthesizes arrivals on the fly over Duration.
	OpenLoop *OpenLoop
	// Sessions is a closed-loop workload: each finished turn may submit
	// the next one.
	Sessions Sessions
	// Replay replays a parsed or compiled trace file.
	Replay *trace.Trace

	// Observers receive the run's event stream, in order, after the
	// controllers. Live, when set, builds one more observer from the
	// assembled backend (for renderers that poll replica state as the run
	// streams); it is subscribed after Observers.
	Observers []serve.Observer
	Live      func(serve.Backend) serve.Observer
	// SnapshotEvery and Window configure the driver's periodic Snapshot
	// events (serve.Options).
	SnapshotEvery float64
	Window        float64
}

// OpenLoop is an open-loop arrival stream: a time-varying Poisson process
// of the named shape (workload.RateProfile) around MeanRPS.
type OpenLoop struct {
	Profile string
	MeanRPS float64
	// Mix is the SLO-class mix (zero: workload.DefaultMix) and SLOScale
	// scales the most urgent SLO (zero: 1).
	Mix      workload.Mix
	SLOScale float64
	// GenSalt seeds the request generator with Hash2(Seed, GenSalt); the
	// arrival thinning draws from Hash2(Seed, 0x7a).
	GenSalt uint64
}

// Sessions is a closed-loop workload such as workload.Sessions: the first
// turns are submitted up front, and every finished request may yield a
// follow-up.
type Sessions interface {
	InitialRequests() []*request.Request
	FollowUp(done *request.Request, now float64) *request.Request
}

// Result is a finished scenario.
type Result struct {
	// Serve is the driver's result: iterations, end time, event count.
	Serve *serve.Result
	// Summary is the single system's summary, or the fleet aggregate.
	Summary *metrics.Summary
	// Cluster is the fleet result (nil for a single system); its summary
	// carries the autoscale, admission and fault sections.
	Cluster *cluster.Result
	// Backend is the backend the run drove.
	Backend serve.Backend
	// Adaptive is the closed-loop controller, when one was armed.
	Adaptive *adaptive.Controller
}

// fleet reports whether the scenario runs a cluster rather than one system.
func (s Scenario) fleet() bool { return s.Replicas > 1 || len(s.Roles) > 0 }

// Size is the number of replicas the scenario runs.
func (s Scenario) Size() int {
	if len(s.Roles) > 0 {
		return len(s.Roles)
	}
	return max(s.Replicas, 1)
}

// Validate refuses an incompatible configuration up front, before any
// source or backend is built. A scenario without a workload passes (the
// caller may attach one afterwards); Run requires one.
func (s Scenario) Validate() error {
	if _, err := ParseSystem(string(s.System)); err != nil {
		return err
	}
	if s.Replicas < 0 {
		return fmt.Errorf("experiments: %d replicas: need at least 1", s.Replicas)
	}
	if len(s.Roles) > 0 && s.Replicas != 0 && s.Replicas != len(s.Roles) {
		return fmt.Errorf("experiments: %d replicas contradicts roles %s (%d replicas)",
			s.Replicas, cluster.SplitName(s.Roles), len(s.Roles))
	}
	if s.Router != "" || s.fleet() {
		if _, err := cluster.NewRouter(s.Router); err != nil {
			return err
		}
	}
	if s.Autoscale != "" {
		if _, err := autoscale.NewPolicy(s.Autoscale); err != nil {
			return err
		}
		if s.Size() < 2 {
			return fmt.Errorf("experiments: autoscale %s needs a capacity fleet of at least 2 replicas", s.Autoscale)
		}
	}
	if s.Elastic != nil && !s.fleet() {
		return fmt.Errorf("experiments: an elastic fleet needs more than one replica")
	}
	if !s.Faults.Empty() {
		if !s.fleet() {
			return fmt.Errorf("experiments: faults need a cluster of at least 2 replicas")
		}
		// Binding is a pure function of the spec and the fleet: it refuses
		// a replica the fleet does not have before anything runs.
		if _, err := s.Faults.Bind(s.Seed, s.Size(), s.Duration); err != nil {
			return err
		}
	}
	if s.Adaptive != nil && !s.Adaptive.DisableTuning && s.System != SysAdaServe {
		return fmt.Errorf("experiments: adaptive speculation tuning needs %s, not %s (disable tuning for admission-only control)",
			SysAdaServe, s.System)
	}
	if s.Build.PrefixHostBlocks < 0 {
		return fmt.Errorf("experiments: prefix host tier %d: need a non-negative block count", s.Build.PrefixHostBlocks)
	}
	if s.Build.PrefixHostBlocks > 0 && !s.Build.Prefix {
		return fmt.Errorf("experiments: a prefix host tier needs prefix caching")
	}
	var set []string
	for _, src := range []struct {
		name string
		on   bool
	}{
		{"closed trace", s.Trace != nil},
		{"open loop", s.OpenLoop != nil},
		{"sessions", s.Sessions != nil},
		{"trace replay", s.Replay != nil},
	} {
		if src.on {
			set = append(set, src.name)
		}
	}
	if len(set) > 1 {
		return fmt.Errorf("experiments: %s each pick the workload source; set at most one", strings.Join(set, " and "))
	}
	if s.OpenLoop != nil {
		if _, _, err := workload.RateProfile(s.OpenLoop.Profile, s.OpenLoop.MeanRPS, s.Duration); err != nil {
			return err
		}
	}
	return nil
}

// Backend builds the scenario's serving backend: a serve.SingleSystem for
// one replica with no roles, otherwise a cluster — elastic when Elastic is
// set or Autoscale names a policy. Replica i's engine seed derives from
// Seed and i alone, and its admission mode follows its role, so a replica
// behaves identically whatever fleet, router or lifecycle surrounds it.
func (s Scenario) Backend() (serve.Backend, error) {
	opts := s.Build
	opts.Seed = s.Seed
	if !s.fleet() {
		sys, err := Build(s.System, s.Setup, opts)
		if err != nil {
			return nil, err
		}
		return serve.SingleSystem(sys), nil
	}
	router, err := cluster.NewRouter(s.Router)
	if err != nil {
		return nil, err
	}
	roles := s.Roles
	if len(roles) == 0 {
		roles = make([]cluster.Role, s.Replicas)
	}
	systems := make([]sched.System, len(roles))
	for i, role := range roles {
		o := opts
		o.Seed = mathutil.Hash2(s.Seed, 0xc1a0+uint64(i))
		o.Mode = role.Mode()
		if systems[i], err = Build(s.System, s.Setup, o); err != nil {
			return nil, fmt.Errorf("experiments: replica %d: %w", i, err)
		}
	}
	// Every fleet prices KV handoffs — prefill-to-decode migrations and
	// elastic drains — over DisaggLink; a static colocated fleet never
	// migrates.
	transfer := gpu.KVTransfer{Model: s.Setup.Target, Link: DisaggLink}
	eopts := s.Elastic
	if eopts == nil && s.Autoscale != "" {
		eopts = &cluster.ElasticOptions{ColdStart: AutoscaleColdStart(s.Duration), InitialActive: 1}
	}
	if eopts != nil {
		return cluster.NewElastic(systems, roles, router, transfer, *eopts)
	}
	return cluster.NewWithRoles(systems, roles, router, transfer)
}

// source builds the arrival stream, returning the closed trace's private
// copies (nil for every other source) so the summary can aggregate in
// trace order.
func (s Scenario) source() (serve.Source, []*request.Request, error) {
	switch {
	case s.Trace != nil:
		reqs := request.CloneAll(s.Trace)
		src, err := serve.NewTraceSource(reqs)
		return src, reqs, err
	case s.OpenLoop != nil:
		o := s.OpenLoop
		rate, maxRate, err := workload.RateProfile(o.Profile, o.MeanRPS, s.Duration)
		if err != nil {
			return nil, nil, err
		}
		mix, scale := o.Mix, o.SLOScale
		if mix == (workload.Mix{}) {
			mix = workload.DefaultMix
		}
		if scale == 0 {
			scale = 1
		}
		gen, err := NewGenerator(s.Setup, mix, scale, mathutil.Hash2(s.Seed, o.GenSalt))
		if err != nil {
			return nil, nil, err
		}
		src, err := serve.NewOpenLoop(gen, mathutil.NewRNG(mathutil.Hash2(s.Seed, 0x7a)), rate, maxRate, s.Duration)
		return src, nil, err
	case s.Sessions != nil:
		src := serve.NewSubmitSource()
		for _, r := range s.Sessions.InitialRequests() {
			if err := src.Submit(r); err != nil {
				return nil, nil, err
			}
		}
		return src, nil, nil
	case s.Replay != nil:
		src, err := trace.NewSource(s.Replay)
		return src, nil, err
	}
	return nil, nil, fmt.Errorf("experiments: scenario has no workload")
}

// Run validates the scenario, builds and runs it, and returns the result.
// A closed trace aggregates in trace order; every other source aggregates
// over the admitted requests in admission order.
func (s Scenario) Run() (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	src, closed, err := s.source()
	if err != nil {
		return nil, err
	}
	backend, err := s.Backend()
	if err != nil {
		return nil, err
	}
	cl, _ := backend.(*cluster.Cluster)
	opts := serve.Options{SnapshotEvery: s.SnapshotEvery, Window: s.Window}
	var inj *faults.Injector
	if !s.Faults.Empty() {
		inj, err = faults.New(cl, s.Faults, faults.Options{Seed: s.Seed, Horizon: s.Duration, Recovery: s.Recovery})
		if err != nil {
			return nil, err
		}
		opts.Faults = inj
	}
	if s.Autoscale != "" {
		policy, err := autoscale.NewPolicy(s.Autoscale)
		if err != nil {
			return nil, err
		}
		ctrl, err := autoscale.New(cl, policy, autoscale.Options{
			Interval: AutoscaleInterval(s.Duration),
			Window:   AutoscaleWindow(s.Duration),
		})
		if err != nil {
			return nil, err
		}
		opts.Autoscaler = ctrl
	}
	res := &Result{Backend: backend}
	if s.Adaptive != nil {
		if res.Adaptive, err = adaptive.New(backend, *s.Adaptive); err != nil {
			return nil, err
		}
		opts.Adaptive = res.Adaptive
	}
	srv, err := serve.NewServer(backend, opts)
	if err != nil {
		return nil, err
	}
	for _, o := range s.Observers {
		srv.Subscribe(o)
	}
	if s.Live != nil {
		srv.Subscribe(s.Live(backend))
	}
	var submitErr error
	if s.Sessions != nil {
		submit := src.(*serve.SubmitSource)
		srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) {
			e, ok := ev.(serve.RequestFinished)
			if !ok {
				return
			}
			if next := s.Sessions.FollowUp(e.Req, e.Time); next != nil {
				if err := submit.Submit(next); err != nil && submitErr == nil {
					submitErr = err
				}
			}
		}))
	}
	if res.Serve, err = srv.Run(src); err != nil {
		return nil, err
	}
	if submitErr != nil {
		return nil, submitErr
	}

	if cl == nil {
		sys := backend.Instances()[0].System()
		reqs := closed
		if reqs == nil {
			reqs = sys.Pool().Done()
		}
		res.Summary = metrics.Summarize(sys.Name(), reqs, res.Serve.Breakdown)
		return res, nil
	}
	res.Cluster = cl.Results(res.Serve, closed)
	sum := res.Cluster.Summary
	if s.Autoscale != "" {
		sum.Autoscale.Policy = s.Autoscale
	}
	if res.Adaptive != nil {
		a := res.Adaptive.Summary()
		sum.Admission = &a
	}
	if inj != nil {
		f := inj.Summary(res.Serve.EndTime)
		sum.Faults = &f
	}
	res.Summary = sum.Aggregate
	return res, nil
}
