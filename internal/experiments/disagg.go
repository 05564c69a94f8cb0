package experiments

import (
	"fmt"
	"strings"

	"adaserve/internal/cluster"
	"adaserve/internal/gpu"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// DisaggLink is the interconnect pricing the prefill-to-decode KV handoff in
// the disaggregation experiment: a cross-node RDMA fabric, the link real
// disaggregated deployments migrate KV over.
var DisaggLink = gpu.RDMA400

// DisaggSplits are the four-replica fleet layouts the disaggregation
// experiment compares at equal aggregate load: the colocated baseline
// against every prefill/decode partition of the same four replicas.
func DisaggSplits() []string { return []string{"colocated", "1P3D", "2P2D", "3P1D"} }

// DisaggMix tags a workload mix swept by the disaggregation experiment.
type DisaggMix struct {
	Name string
	Mix  workload.Mix
}

// DisaggMixes returns the SLO mixes of the disaggregation sweep: the default
// 60/20/20 interactive-heavy mix, and a summarization-heavy mix whose long
// prompts are where prefill interference hurts colocated replicas most.
func DisaggMixes() []DisaggMix {
	return []DisaggMix{
		{Name: "default", Mix: workload.DefaultMix},
		{Name: "summ-heavy", Mix: workload.Mix{0.2, 0.2, 0.6}},
	}
}

// DisaggPoint is one (split, router, mix) cell of the disaggregation
// experiment.
type DisaggPoint struct {
	Split  string
	Router string
	Mix    string
	Sum    *metrics.ClusterSummary
}

// DisaggAggregateRPS returns the experiment's fixed aggregate offered load:
// four replicas' worth of the replica-scaling experiment's per-replica rate,
// so every split — colocated or partitioned — faces the identical trace.
func DisaggAggregateRPS(setup ModelSetup) float64 {
	return 4 * ClusterPerReplicaRPS(setup)
}

// Disaggregation runs the prefill/decode-disaggregation experiment: an
// AdaServe fleet of four replicas, colocated vs every P/D partition, under
// each router policy and SLO mix, at equal aggregate load. All cells of one
// mix replay the identical trace, so differences are pure fleet-layout and
// routing effects.
func Disaggregation(setup ModelSetup, opts RunOptions) ([]DisaggPoint, error) {
	opts.fill()
	rps := DisaggAggregateRPS(setup)
	type disaggCell struct {
		split  string
		router string
		mix    string
		reqs   []*request.Request
	}
	var cells []disaggCell
	for _, mix := range DisaggMixes() {
		reqs, err := mixedTrace(setup, mix.Mix, 1.0, rps, opts.Duration, opts.Seed)
		if err != nil {
			return nil, err
		}
		for _, split := range DisaggSplits() {
			for _, routerName := range cluster.RouterNames() {
				cells = append(cells, disaggCell{split: split, router: routerName, mix: mix.Name, reqs: reqs})
			}
		}
	}
	sums, err := runJobs(opts.Parallel, len(cells), func(i int) (*metrics.ClusterSummary, error) {
		c := cells[i]
		sc := Scenario{System: SysAdaServe, Setup: setup, Seed: opts.Seed, Router: c.router, Trace: c.reqs}
		if c.split == "colocated" {
			sc.Replicas = 4
		} else {
			roles, err := cluster.ParseSplit(c.split)
			if err != nil {
				return nil, err
			}
			sc.Roles = roles
		}
		res, err := sc.Run()
		if err != nil {
			return nil, fmt.Errorf("disagg %s router=%s mix=%s: %w", c.split, c.router, c.mix, err)
		}
		return res.Cluster.Summary, nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]DisaggPoint, len(cells))
	for i, c := range cells {
		pts[i] = DisaggPoint{Split: c.split, Router: c.router, Mix: c.mix, Sum: sums[i]}
	}
	return pts, nil
}

// RenderDisagg formats the disaggregation experiment as aligned tables per
// mix: TTFT attainment, TPOT attainment, goodput and mean KV-transfer
// latency, one row per fleet split and one column per router.
func RenderDisagg(pts []DisaggPoint) string {
	mixes := distinct(pts, func(p DisaggPoint) string { return p.Mix })
	routers := distinct(pts, func(p DisaggPoint) string { return p.Router })
	splits := distinct(pts, func(p DisaggPoint) string { return p.Split })
	cell := func(mix, split, router string, f func(*metrics.ClusterSummary) float64) string {
		for _, p := range pts {
			if p.Mix == mix && p.Split == split && p.Router == router {
				return fmt.Sprintf("%.2f", f(p.Sum))
			}
		}
		return ""
	}
	var b strings.Builder
	for _, mix := range mixes {
		fmt.Fprintf(&b, "== mix %s ==\n", mix)
		for _, m := range []struct {
			name string
			f    func(*metrics.ClusterSummary) float64
		}{
			{"TTFT attainment %", func(s *metrics.ClusterSummary) float64 { return 100 * s.TTFTAttainment() }},
			{"TPOT attainment %", func(s *metrics.ClusterSummary) float64 { return 100 * s.Attainment() }},
			{"goodput tok/s", func(s *metrics.ClusterSummary) float64 { return s.Goodput() }},
			{"KV transfer mean ms", func(s *metrics.ClusterSummary) float64 { return 1e3 * s.Transfer.MeanLatency() }},
		} {
			fmt.Fprintf(&b, "%-10s", "split")
			for _, r := range routers {
				fmt.Fprintf(&b, "%16s", r)
			}
			fmt.Fprintf(&b, "   [%s]\n", m.name)
			for _, s := range splits {
				fmt.Fprintf(&b, "%-10s", s)
				for _, r := range routers {
					fmt.Fprintf(&b, "%16s", cell(mix, s, r, m.f))
				}
				b.WriteString("\n")
			}
			b.WriteString("\n")
		}
	}
	return strings.TrimSuffix(b.String(), "\n")
}
