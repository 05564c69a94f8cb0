package experiments

import (
	"fmt"
	"strings"

	"adaserve/internal/autoscale"
	"adaserve/internal/cluster"
	"adaserve/internal/metrics"
	"adaserve/internal/workload"
)

// AutoscaleFleet is the autoscaling experiment's capacity fleet: the static
// baseline runs this many replicas the whole time; elastic configurations
// may scale within it.
const AutoscaleFleet = 4

// AutoscaleProfiles are the arrival shapes of the autoscaling sweep: the
// two time-varying loads where a fixed fleet wastes the most capacity.
func AutoscaleProfiles() []string { return []string{"spike", "diurnal"} }

// AutoscaleConfigs are the fleet-sizing configurations under comparison:
// the equal-peak static fleet plus every built-in scaling policy.
func AutoscaleConfigs() []string {
	return append([]string{"static"}, autoscale.PolicyNames()...)
}

// AutoscaleMeanRPS sizes the experiment's offered load: the profile's peak
// rate equals the capacity fleet running at the replica-scaling experiment's
// contended-but-serviceable per-replica operating point — i.e. the static
// fleet is exactly peak-provisioned, the deployment a peak-capacity planner
// would run.
func AutoscaleMeanRPS(setup ModelSetup, profile string) (float64, error) {
	peak, err := workload.RateProfilePeakFactor(profile)
	if err != nil {
		return 0, err
	}
	return AutoscaleFleet * ClusterPerReplicaRPS(setup) / peak, nil
}

// Autoscale control-loop timing, derived from the run duration so short
// test runs and full-length sweeps keep the same proportions: decisions
// every 1/30th of the run, a cold start of 1/20th (model load + KV
// allocation), rolling windows of 1/8th.
func AutoscaleInterval(duration float64) float64  { return duration / 30 }
func AutoscaleColdStart(duration float64) float64 { return duration / 20 }
func AutoscaleWindow(duration float64) float64    { return duration / 8 }

// AutoscalePoint is one (config, profile, router) cell of the autoscaling
// experiment. Sum.Autoscale carries the cost-efficiency headline
// (goodput per replica-second) every configuration is compared on.
type AutoscalePoint struct {
	Config  string // "static" or a policy name
	Profile string
	Router  string
	Sum     *metrics.ClusterSummary
}

// Autoscaling runs the elastic-fleet experiment: the equal-peak static
// cluster against every scaling policy, under the spike and diurnal arrival
// profiles and each router, at identical offered load (every cell of one
// profile consumes the identical open-loop arrival stream). The comparison
// metric is goodput per replica-second: a static fleet holds peak capacity
// through the troughs, an autoscaled fleet gives it back.
func Autoscaling(setup ModelSetup, opts RunOptions) ([]AutoscalePoint, error) {
	opts.fill()
	type autoscaleCell struct {
		config  string
		profile string
		router  string
	}
	var cells []autoscaleCell
	for _, profile := range AutoscaleProfiles() {
		for _, config := range AutoscaleConfigs() {
			for _, routerName := range cluster.RouterNames() {
				cells = append(cells, autoscaleCell{config: config, profile: profile, router: routerName})
			}
		}
	}
	sums, err := runJobs(opts.Parallel, len(cells), func(i int) (*metrics.ClusterSummary, error) {
		c := cells[i]
		sum, err := AutoscaleCell(setup, c.config, c.profile, c.router, opts)
		if err != nil {
			return nil, fmt.Errorf("autoscale %s profile=%s router=%s: %w", c.config, c.profile, c.router, err)
		}
		return sum, nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]AutoscalePoint, len(cells))
	for i, c := range cells {
		pts[i] = AutoscalePoint{Config: c.config, Profile: c.profile, Router: c.router, Sum: sums[i]}
	}
	return pts, nil
}

// AutoscaleCell replays one configuration over the profile's open-loop
// arrival stream. The workload generator and thinning RNG are seeded
// identically across cells (matching adaserve-sim's open-loop seeding), so
// every cell of one profile faces the same requests at the same instants.
func AutoscaleCell(setup ModelSetup, config, profile, routerName string, opts RunOptions) (*metrics.ClusterSummary, error) {
	mean, err := AutoscaleMeanRPS(setup, profile)
	if err != nil {
		return nil, err
	}
	sc := Scenario{
		System: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
		Replicas: AutoscaleFleet, Router: routerName,
		OpenLoop: &OpenLoop{Profile: profile, MeanRPS: mean, GenSalt: 0x51e},
	}
	if config != "static" {
		sc.Autoscale = config
	}
	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	res.Cluster.Summary.Autoscale.Policy = config
	return res.Cluster.Summary, nil
}

// RenderAutoscale formats the autoscaling experiment as aligned tables per
// profile — goodput per replica-second (the headline), attainment,
// replica-seconds consumed, and scale events — one row per configuration
// and one column per router.
func RenderAutoscale(pts []AutoscalePoint) string {
	profiles := distinct(pts, func(p AutoscalePoint) string { return p.Profile })
	routers := distinct(pts, func(p AutoscalePoint) string { return p.Router })
	configs := distinct(pts, func(p AutoscalePoint) string { return p.Config })
	cell := func(profile, config, router string, f func(*metrics.ClusterSummary) float64) string {
		for _, p := range pts {
			if p.Profile == profile && p.Config == config && p.Router == router {
				return fmt.Sprintf("%.2f", f(p.Sum))
			}
		}
		return ""
	}
	var b strings.Builder
	for _, profile := range profiles {
		fmt.Fprintf(&b, "== profile %s ==\n", profile)
		for _, m := range []struct {
			name string
			f    func(*metrics.ClusterSummary) float64
		}{
			{"goodput / replica-second", func(s *metrics.ClusterSummary) float64 { return s.Autoscale.GoodputPerReplicaSecond() }},
			{"attainment %", func(s *metrics.ClusterSummary) float64 { return 100 * s.Attainment() }},
			{"replica-seconds", func(s *metrics.ClusterSummary) float64 { return s.Autoscale.ReplicaSeconds }},
			{"scale events (up+down)", func(s *metrics.ClusterSummary) float64 {
				return float64(s.Autoscale.ScaleUps + s.Autoscale.ScaleDowns)
			}},
		} {
			fmt.Fprintf(&b, "%-14s", "config")
			for _, r := range routers {
				fmt.Fprintf(&b, "%16s", r)
			}
			fmt.Fprintf(&b, "   [%s]\n", m.name)
			for _, cfg := range configs {
				fmt.Fprintf(&b, "%-14s", cfg)
				for _, r := range routers {
					fmt.Fprintf(&b, "%16s", cell(profile, cfg, r, m.f))
				}
				b.WriteString("\n")
			}
			b.WriteString("\n")
		}
	}
	return strings.TrimSuffix(b.String(), "\n")
}
