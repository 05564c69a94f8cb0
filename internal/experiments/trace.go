package experiments

import (
	"embed"
	"fmt"
	"strings"

	"adaserve/internal/adaptive"
	"adaserve/internal/cluster"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/trace"
)

// traceSpecs holds the committed adversarial workload specs the trace
// experiment sweeps; each is a declarative scenario designed to stress a
// different part of the serving stack.
//
//go:embed testdata/specs/*.spec
var traceSpecs embed.FS

// TraceFleet is the trace experiment's static fleet, matching the
// flash-crowd experiment so the two sweeps are comparable: small enough
// that the committed scenarios genuinely contend.
const TraceFleet = 2

// TraceCapacity is the elastic configuration's capacity fleet: one replica
// of headroom over the static baseline, so the autoscaler has somewhere to
// go when a scenario's transient exceeds the static fleet.
const TraceCapacity = 3

// TraceRouter fronts every cell; held fixed so cells differ only in the
// scenario and control configuration.
const TraceRouter = "slo-aware"

// TracePolicy is the elastic configuration's scaling policy.
const TracePolicy = "rate-prop"

// traceSeedSalt decorrelates the sweep's spec-compilation seed from the
// other experiment seed streams.
const traceSeedSalt = 0x7c5

// TraceScenarios lists the committed spec scenarios, in sweep order:
//
//	bursty    — a steady coding cohort, a chat cohort arriving in
//	            correlated 6-second bursts (the flash crowds routers and
//	            admission see in production), and a diurnally modulated
//	            summarization cohort.
//	heavytail — a ramping chat cohort against a summarization cohort with
//	            Pareto(α=1.1) prompts: a few enormous contexts wedged into
//	            every batch.
func TraceScenarios() []string { return []string{"bursty", "heavytail"} }

// TraceConfigs are the control configurations each scenario replays under:
// the static fleet, the static fleet behind the overload admission gate,
// and the elastic fleet under the scaling policy.
func TraceConfigs() []string { return []string{"static", "admission", "autoscale"} }

// TraceSpec loads and parses a committed scenario spec by name.
func TraceSpec(scenario string) (*trace.Spec, error) {
	data, err := traceSpecs.ReadFile("testdata/specs/" + scenario + ".spec")
	if err != nil {
		return nil, fmt.Errorf("experiments: unknown trace scenario %q (want one of %s)",
			scenario, strings.Join(TraceScenarios(), ", "))
	}
	return trace.ParseSpec(string(data))
}

// CompileTraceSpec compiles a scenario for this sweep's setup and options:
// class SLOs resolve against the setup's baseline decode latency, and the
// run's duration and seed override the spec's, so every config of one
// scenario replays the identical arrival stream.
func CompileTraceSpec(spec *trace.Spec, setup ModelSetup, opts RunOptions) (*trace.Trace, error) {
	return trace.Compile(spec, trace.CompileOptions{
		BaselineLatency: setup.BaselineLatency(),
		Duration:        opts.Duration,
		Seed:            mathutil.Hash2(opts.Seed, traceSeedSalt),
	})
}

// TracePoint is one (scenario, config) cell of the trace-replay sweep.
type TracePoint struct {
	Scenario string
	Config   string
	Sum      *metrics.ClusterSummary
}

// TraceReplay runs the trace experiment: each committed adversarial
// scenario compiles once per seed and replays identically through the
// static fleet, the admission gate, and the autoscaled fleet. The sweep
// shows what each control mechanism buys against workload compositions —
// correlated bursts, heavy-tail prompts — that the synthetic open-loop
// profiles cannot express.
func TraceReplay(setup ModelSetup, opts RunOptions) ([]TracePoint, error) {
	opts.fill()
	type traceCell struct {
		scenario string
		config   string
	}
	var cells []traceCell
	for _, scenario := range TraceScenarios() {
		for _, config := range TraceConfigs() {
			cells = append(cells, traceCell{scenario: scenario, config: config})
		}
	}
	sums, err := runJobs(opts.Parallel, len(cells), func(i int) (*metrics.ClusterSummary, error) {
		c := cells[i]
		sum, err := TraceCell(setup, c.scenario, c.config, opts)
		if err != nil {
			return nil, fmt.Errorf("trace %s config=%s: %w", c.scenario, c.config, err)
		}
		return sum, nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]TracePoint, len(cells))
	for i, c := range cells {
		pts[i] = TracePoint{Scenario: c.scenario, Config: c.config, Sum: sums[i]}
	}
	return pts, nil
}

// TraceCell compiles one scenario and replays it under one configuration.
// Compilation seeding depends only on (opts.Seed, scenario), so every
// configuration of a scenario faces the same requests at the same
// instants; what differs is only how the fleet responds.
func TraceCell(setup ModelSetup, scenario, config string, opts RunOptions) (*metrics.ClusterSummary, error) {
	spec, err := TraceSpec(scenario)
	if err != nil {
		return nil, err
	}
	tr, err := CompileTraceSpec(spec, setup, opts)
	if err != nil {
		return nil, err
	}
	sc := Scenario{
		System: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
		Replicas: TraceFleet, Router: TraceRouter, Replay: tr,
	}
	switch config {
	case "static":
	case "admission":
		sc.Adaptive = &adaptive.Config{
			Interval:      AdaptiveInterval(opts.Duration),
			Window:        AutoscaleWindow(opts.Duration),
			DisableTuning: true,
		}
	case "autoscale":
		sc.Replicas = TraceCapacity
		sc.Elastic = &cluster.ElasticOptions{ColdStart: AutoscaleColdStart(opts.Duration), InitialActive: TraceFleet}
		sc.Autoscale = TracePolicy
	default:
		return nil, fmt.Errorf("experiments: unknown trace config %q (want one of %s)",
			config, strings.Join(TraceConfigs(), ", "))
	}
	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	return res.Cluster.Summary, nil
}

// RenderTrace formats the trace-replay sweep as one aligned table per
// scenario: a row per control configuration, a column per headline metric.
func RenderTrace(pts []TracePoint) string {
	scenarios := distinct(pts, func(p TracePoint) string { return p.Scenario })
	configs := distinct(pts, func(p TracePoint) string { return p.Config })
	metricsCols := []struct {
		name string
		f    func(*metrics.ClusterSummary) float64
	}{
		{"goodput", func(s *metrics.ClusterSummary) float64 { return s.Goodput() }},
		{"attain%", func(s *metrics.ClusterSummary) float64 { return 100 * s.Attainment() }},
		{"ttftAtt%", func(s *metrics.ClusterSummary) float64 { return 100 * s.TTFTAttainment() }},
		{"maxTTFT", func(s *metrics.ClusterSummary) float64 { return s.Aggregate.MaxTTFT }},
		{"p50TPOT", func(s *metrics.ClusterSummary) float64 { return s.Aggregate.P50TPOT() }},
		{"p99TPOT", func(s *metrics.ClusterSummary) float64 { return s.Aggregate.P99TPOT() }},
		{"p999TPOT", func(s *metrics.ClusterSummary) float64 { return s.Aggregate.P999TPOT() }},
		{"degraded", func(s *metrics.ClusterSummary) float64 {
			if s.Admission == nil {
				return 0
			}
			return float64(s.Admission.Degraded)
		}},
		{"rejected", func(s *metrics.ClusterSummary) float64 {
			if s.Admission == nil {
				return 0
			}
			return float64(s.Admission.Rejected)
		}},
	}
	var b strings.Builder
	for _, scenario := range scenarios {
		fmt.Fprintf(&b, "== scenario %s ==\n", scenario)
		fmt.Fprintf(&b, "%-20s", "config")
		for _, m := range metricsCols {
			fmt.Fprintf(&b, "%12s", m.name)
		}
		b.WriteString("\n")
		for _, cfg := range configs {
			for _, p := range pts {
				if p.Scenario != scenario || p.Config != cfg {
					continue
				}
				fmt.Fprintf(&b, "%-20s", cfg)
				for _, m := range metricsCols {
					fmt.Fprintf(&b, "%12.2f", m.f(p.Sum))
				}
				b.WriteString("\n")
			}
		}
		b.WriteString("\n")
	}
	return strings.TrimSuffix(b.String(), "\n")
}
