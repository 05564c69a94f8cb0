package experiments

import (
	"fmt"
	"strings"

	"adaserve/internal/cluster"
	"adaserve/internal/faults"
	"adaserve/internal/metrics"
)

// FaultFleet is the chaos experiment's capacity fleet for the crash and
// straggler scenarios: an elastic colocated AdaServe deployment sized so
// that losing one replica hurts but recovery has somewhere to send work.
const FaultFleet = 4

// FaultInitialActive is the fleet's steady-state size; the spare capacity
// replica is what autoscale-driven replacement provisions into after a
// crash.
const FaultInitialActive = 3

// FaultRouter fronts every chaos cell; held fixed so cells differ only in
// the fault schedule and recovery mode.
const FaultRouter = "slo-aware"

// FaultScenarios are the failure shapes of the chaos sweep: a replica crash
// with repair, a slowed-but-alive straggler, and a lossy/degraded KV-transfer
// link on a disaggregated fleet.
func FaultScenarios() []string { return []string{"crash", "straggler", "link"} }

// FaultRecoveries are the recovery modes under comparison.
func FaultRecoveries() []string { return []string{"none", "retry", "retry+hedge"} }

// FaultSpec returns the pinned fault schedule for a scenario, scaled to the
// run duration so short CI runs and long sweeps keep the same proportions:
//
//	crash     — replica 0 dies a quarter into the run, repaired after D/6
//	            (requests frozen there are lost unless recovery re-dispatches).
//	straggler — replica 0 runs 6x slow for the middle half of the run: alive,
//	            so timeout detection never fires — only hedging helps.
//	link      — the KV-transfer fabric drops half of all migrations and slows
//	            the survivors 3x for the middle half of the run.
func FaultSpec(scenario string, duration float64) (faults.Spec, error) {
	var raw string
	switch scenario {
	case "crash":
		raw = fmt.Sprintf("crash@%g+%g:r0", duration/4, duration/6)
	case "straggler":
		raw = fmt.Sprintf("slow@%g+%g:r0:x6", duration/4, duration/2)
	case "link":
		raw = fmt.Sprintf("link@%g+%g:p0.5:x3", duration/4, duration/2)
	default:
		return faults.Spec{}, fmt.Errorf("experiments: unknown fault scenario %q (want one of %s)",
			scenario, strings.Join(FaultScenarios(), ", "))
	}
	return faults.ParseSpec(raw)
}

// FaultPoint is one (scenario, recovery) cell of the chaos sweep.
type FaultPoint struct {
	Scenario string
	Recovery string
	Sum      *metrics.ClusterSummary
}

// FaultLoadFactor scales each scenario's offered load against the steady
// fleet's capacity, because the two recovery mechanisms are meaningful in
// different operating regimes. Failover is judged at the contended
// operating point (factor 1): a crash there genuinely backs work up, and
// retry's re-dispatch is what wins it back. Hedging is judged with
// provisioned headroom (factor 0.9): duplicates race in the survivors'
// slack, exactly the regime tail-tolerant hedging is designed for — a
// fleet pinned at saturation would convert every duplicate into queueing
// delay for healthy traffic. Custom schedules get the headroom factor so
// both mechanisms have room to act.
func FaultLoadFactor(scenario string) float64 {
	if scenario == "straggler" || scenario == "custom" {
		return 0.9
	}
	return 1.0
}

// FaultMeanRPS is the chaos sweep's offered load for one scenario.
func FaultMeanRPS(setup ModelSetup, scenario string) float64 {
	return FaultLoadFactor(scenario) * FaultInitialActive * ClusterPerReplicaRPS(setup)
}

// Faults runs the chaos sweep: every failure scenario crossed with every
// recovery mode, each cell replaying the identical arrival stream against the
// identical fault schedule — only the recovery response differs. The headline
// comparisons: under a crash, retry+failover recovers the goodput and
// attainment that no-recovery forfeits to lost requests; under a straggler,
// hedged re-dispatch bounds the worst-case TTFT that retry alone (which never
// triggers — the replica is alive) cannot touch.
func Faults(setup ModelSetup, opts RunOptions) ([]FaultPoint, error) {
	opts.fill()
	type faultCell struct {
		scenario string
		recovery string
	}
	var cells []faultCell
	for _, scenario := range FaultScenarios() {
		for _, recovery := range FaultRecoveries() {
			cells = append(cells, faultCell{scenario: scenario, recovery: recovery})
		}
	}
	sums, err := runJobs(opts.Parallel, len(cells), func(i int) (*metrics.ClusterSummary, error) {
		c := cells[i]
		sum, err := FaultCell(setup, c.scenario, c.recovery, opts)
		if err != nil {
			return nil, fmt.Errorf("faults %s recovery=%s: %w", c.scenario, c.recovery, err)
		}
		return sum, nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]FaultPoint, len(cells))
	for i, c := range cells {
		pts[i] = FaultPoint{Scenario: c.scenario, Recovery: c.recovery, Sum: sums[i]}
	}
	return pts, nil
}

// FaultsWithSpec runs the recovery-mode comparison on a caller-supplied
// schedule (adaserve-bench's -faults override): every recovery mode replays
// the custom spec as one "custom" scenario on the chaos sweep's elastic
// fleet.
func FaultsWithSpec(setup ModelSetup, spec faults.Spec, opts RunOptions) ([]FaultPoint, error) {
	opts.fill()
	recoveries := FaultRecoveries()
	sums, err := runJobs(opts.Parallel, len(recoveries), func(i int) (*metrics.ClusterSummary, error) {
		sum, err := faultRun(setup, spec, "custom", recoveries[i], opts)
		if err != nil {
			return nil, fmt.Errorf("faults custom recovery=%s: %w", recoveries[i], err)
		}
		return sum, nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]FaultPoint, len(recoveries))
	for i, recovery := range recoveries {
		pts[i] = FaultPoint{Scenario: "custom", Recovery: recovery, Sum: sums[i]}
	}
	return pts, nil
}

// FaultCell replays one (scenario, recovery) chaos cell. Crash and straggler
// run on the elastic colocated fleet (so a crash also exercises
// autoscale-driven replacement); the link scenario runs on a static 2P2D
// disaggregated fleet where every finished request crossed the faulted
// fabric. Workload seeding is shared across a scenario's cells, so every
// recovery mode faces the same requests at the same instants.
func FaultCell(setup ModelSetup, scenario, recovery string, opts RunOptions) (*metrics.ClusterSummary, error) {
	spec, err := FaultSpec(scenario, opts.Duration)
	if err != nil {
		return nil, err
	}
	return faultRun(setup, spec, scenario, recovery, opts)
}

// faultRun is the shared cell body: the elastic colocated fleet under
// rate-prop autoscaling (or the static 2P2D disagg fleet for the link
// scenario), armed with the schedule, replaying the scenario-independent
// arrival stream at the scenario's operating point.
func faultRun(setup ModelSetup, spec faults.Spec, scenario, recovery string, opts RunOptions) (*metrics.ClusterSummary, error) {
	rec, err := faults.ParseRecovery(recovery)
	if err != nil {
		return nil, err
	}
	sc := Scenario{
		System: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
		Router: FaultRouter, Faults: spec, Recovery: rec,
		OpenLoop: &OpenLoop{Profile: "constant", MeanRPS: FaultMeanRPS(setup, scenario), GenSalt: 0xfa},
	}
	if scenario == "link" {
		if sc.Roles, err = cluster.ParseSplit("2P2D"); err != nil {
			return nil, err
		}
	} else {
		sc.Replicas = FaultFleet
		sc.Elastic = &cluster.ElasticOptions{ColdStart: AutoscaleColdStart(opts.Duration), InitialActive: FaultInitialActive}
		sc.Autoscale = "rate-prop"
	}
	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	return res.Cluster.Summary, nil
}

// RenderFaults formats the chaos sweep as one aligned table per scenario: a
// row per recovery mode, a column per headline metric. Goodput and attainment
// count lost-and-never-recovered requests as violations, so the recovery rows
// show directly what re-dispatch buys back; maxTTFT is the tail hedging
// exists to bound.
func RenderFaults(pts []FaultPoint) string {
	scenarios := distinct(pts, func(p FaultPoint) string { return p.Scenario })
	recoveries := distinct(pts, func(p FaultPoint) string { return p.Recovery })
	cols := []struct {
		name string
		f    func(*metrics.ClusterSummary) float64
	}{
		{"goodput", func(s *metrics.ClusterSummary) float64 { return s.Goodput() }},
		{"attain%", func(s *metrics.ClusterSummary) float64 { return 100 * s.Attainment() }},
		{"maxTTFT", func(s *metrics.ClusterSummary) float64 { return s.Aggregate.MaxTTFT }},
		{"p99TPOT", func(s *metrics.ClusterSummary) float64 { return s.Aggregate.P99TPOT() }},
		{"lost", func(s *metrics.ClusterSummary) float64 { return float64(s.Faults.LostRequests) }},
		{"retried", func(s *metrics.ClusterSummary) float64 { return float64(s.Faults.Retried) }},
		{"dropped", func(s *metrics.ClusterSummary) float64 { return float64(s.Faults.Dropped) }},
		{"hedged", func(s *metrics.ClusterSummary) float64 { return float64(s.Faults.Hedged) }},
		{"fallback", func(s *metrics.ClusterSummary) float64 { return float64(s.Faults.TransferFallbacks) }},
		{"MTTR", func(s *metrics.ClusterSummary) float64 { return s.Faults.MTTR }},
	}
	var b strings.Builder
	for _, scenario := range scenarios {
		spec := ""
		for _, p := range pts {
			if p.Scenario == scenario && p.Sum.Faults != nil {
				spec = p.Sum.Faults.Spec
				break
			}
		}
		fmt.Fprintf(&b, "== scenario %s (%s) ==\n", scenario, spec)
		fmt.Fprintf(&b, "%-14s", "recovery")
		for _, m := range cols {
			fmt.Fprintf(&b, "%10s", m.name)
		}
		b.WriteString("\n")
		for _, recovery := range recoveries {
			for _, p := range pts {
				if p.Scenario != scenario || p.Recovery != recovery {
					continue
				}
				fmt.Fprintf(&b, "%-14s", recovery)
				for _, m := range cols {
					fmt.Fprintf(&b, "%10.2f", m.f(p.Sum))
				}
				b.WriteString("\n")
			}
		}
		b.WriteString("\n")
	}
	return strings.TrimSuffix(b.String(), "\n")
}
