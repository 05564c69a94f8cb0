package experiments

import (
	"fmt"
	"strings"

	"adaserve/internal/adaptive"
	"adaserve/internal/metrics"
)

// AdaptiveFleet is the flash-crowd experiment's fixed fleet: small enough
// that the burst genuinely saturates it, so the comparison isolates what the
// runtime controller buys when scaling out is not an option (or has not
// happened yet — the cold-start gap admission control covers).
const AdaptiveFleet = 2

// AdaptiveRouter fronts every configuration of the sweep; the router is held
// fixed so the cells differ only in the control loop.
const AdaptiveRouter = "slo-aware"

// AdaptiveProfiles are the arrival shapes of the flash-crowd sweep. The
// spike profile's burst (~5.6x the mean) is the overload the admission gate
// exists for.
func AdaptiveProfiles() []string { return []string{"spike"} }

// AdaptiveConfigs are the control configurations under comparison: the
// static AdaServe baseline, closed-loop speculation tuning alone, and tuning
// plus the overload admission gate.
func AdaptiveConfigs() []string { return []string{"static", "adaptive", "adaptive+admission"} }

// AdaptiveMeanRPS sizes the offered load: the mean sits at the fleet's
// contended-but-serviceable operating point, so the baseline phases are
// healthy and the burst pushes far past capacity.
func AdaptiveMeanRPS(setup ModelSetup) float64 {
	return AdaptiveFleet * ClusterPerReplicaRPS(setup)
}

// AdaptiveInterval is the controller's retune/calibration cadence: twice the
// autoscaler's decision rate, since retuning a scheduler parameter is free
// compared to provisioning a replica.
func AdaptiveInterval(duration float64) float64 { return duration / 60 }

// AdaptivePoint is one (config, profile) cell of the flash-crowd sweep.
type AdaptivePoint struct {
	Config  string
	Profile string
	Sum     *metrics.ClusterSummary
}

// AdaptiveControl runs the flash-crowd experiment: static AdaServe against
// the closed-loop controller (with and without admission) on an identical
// open-loop arrival stream per profile. The headline is goodput under
// overload with a bounded worst-case TTFT: tuning narrows the speculation
// envelope when acceptance drops, and the gate sheds load the fleet provably
// cannot serve instead of letting it poison every queued request behind it.
func AdaptiveControl(setup ModelSetup, opts RunOptions) ([]AdaptivePoint, error) {
	opts.fill()
	type adaptiveCell struct {
		config  string
		profile string
	}
	var cells []adaptiveCell
	for _, profile := range AdaptiveProfiles() {
		for _, config := range AdaptiveConfigs() {
			cells = append(cells, adaptiveCell{config: config, profile: profile})
		}
	}
	sums, err := runJobs(opts.Parallel, len(cells), func(i int) (*metrics.ClusterSummary, error) {
		c := cells[i]
		sum, err := AdaptiveCell(setup, c.config, c.profile, opts)
		if err != nil {
			return nil, fmt.Errorf("adaptive %s profile=%s: %w", c.config, c.profile, err)
		}
		return sum, nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]AdaptivePoint, len(cells))
	for i, c := range cells {
		pts[i] = AdaptivePoint{Config: c.config, Profile: c.profile, Sum: sums[i]}
	}
	return pts, nil
}

// AdaptiveConfig resolves one sweep configuration to a controller config
// (nil for the static baseline). Shared with adaserve-sim's flag wiring so
// the CLI's -adaptive/-admission run the exact cells the sweep pins.
func AdaptiveConfig(config string, duration float64) (*adaptive.Config, error) {
	switch config {
	case "static":
		return nil, nil
	case "adaptive":
		return &adaptive.Config{
			Interval:         AdaptiveInterval(duration),
			Window:           AutoscaleWindow(duration),
			DisableAdmission: true,
		}, nil
	case "adaptive+admission":
		return &adaptive.Config{
			Interval: AdaptiveInterval(duration),
			Window:   AutoscaleWindow(duration),
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown adaptive config %q (want one of %s)",
			config, strings.Join(AdaptiveConfigs(), ", "))
	}
}

// AdaptiveCell replays one configuration over the profile's open-loop
// arrival stream. Workload and thinning seeding are shared across the
// profile's cells, so every configuration faces the same requests at the
// same instants; what differs is only what the controller does about them.
func AdaptiveCell(setup ModelSetup, config, profile string, opts RunOptions) (*metrics.ClusterSummary, error) {
	cfg, err := AdaptiveConfig(config, opts.Duration)
	if err != nil {
		return nil, err
	}
	res, err := Scenario{
		System: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
		Replicas: AdaptiveFleet, Router: AdaptiveRouter, Adaptive: cfg,
		OpenLoop: &OpenLoop{Profile: profile, MeanRPS: AdaptiveMeanRPS(setup), GenSalt: 0xada},
	}.Run()
	if err != nil {
		return nil, err
	}
	return res.Cluster.Summary, nil
}

// RenderAdaptive formats the flash-crowd sweep as one aligned table per
// profile: a row per configuration, a column per headline metric. Goodput
// counts only admitted requests (rejected ones never produce tokens), so the
// admission row trades a visible rejected count for goodput and tail bounds.
func RenderAdaptive(pts []AdaptivePoint) string {
	profiles := distinct(pts, func(p AdaptivePoint) string { return p.Profile })
	configs := distinct(pts, func(p AdaptivePoint) string { return p.Config })
	metricsCols := []struct {
		name string
		f    func(*metrics.ClusterSummary) float64
	}{
		{"goodput", func(s *metrics.ClusterSummary) float64 { return s.Goodput() }},
		{"attain%", func(s *metrics.ClusterSummary) float64 { return 100 * s.Attainment() }},
		{"maxTTFT", func(s *metrics.ClusterSummary) float64 { return s.Aggregate.MaxTTFT }},
		{"p50TPOT", func(s *metrics.ClusterSummary) float64 { return s.Aggregate.P50TPOT() }},
		{"p99TPOT", func(s *metrics.ClusterSummary) float64 { return s.Aggregate.P99TPOT() }},
		{"p999TPOT", func(s *metrics.ClusterSummary) float64 { return s.Aggregate.P999TPOT() }},
		{"maxTPOT", func(s *metrics.ClusterSummary) float64 { return s.Aggregate.MaxTPOT() }},
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
	for _, profile := range profiles {
		fmt.Fprintf(&b, "== profile %s ==\n", profile)
		fmt.Fprintf(&b, "%-20s", "config")
		for _, m := range metricsCols {
			fmt.Fprintf(&b, "%12s", m.name)
		}
		b.WriteString("\n")
		for _, cfg := range configs {
			for _, p := range pts {
				if p.Profile != profile || p.Config != cfg {
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
