package experiments

import (
	"fmt"
	"sort"
	"strings"

	"adaserve/internal/cluster"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// ClusterPoint is one (replica count, router) cell of the replica-scaling
// experiment.
type ClusterPoint struct {
	Replicas int
	Router   string
	Sum      *metrics.ClusterSummary
}

// ClusterReplicaCounts are the cluster sizes the scaling experiment sweeps.
func ClusterReplicaCounts() []int { return []int{1, 2, 3, 4, 8} }

// ClusterPerReplicaRPS returns the fixed per-replica offered load of the
// scaling experiment: the midpoint of the setup's Figure 8 RPS sweep, a
// contended-but-serviceable operating point where routing quality shows.
func ClusterPerReplicaRPS(setup ModelSetup) float64 {
	sweep := RPSSweepsForSetup(setup)
	return sweep[len(sweep)/2]
}

// ClusterScaling runs the replica-scaling experiment: AdaServe clusters of
// 1, 2, 3, 4 and 8 replicas under each router policy at fixed per-replica
// load (the trace rate scales with the replica count, so every
// configuration sees the same offered load per replica). All
// configurations of one replica count replay the identical trace;
// single-replica rows are a sanity anchor where every router must agree,
// and two-replica clusters are where routing matters least (the SLO-aware
// island needs n >= 3, so at n = 2 it degrades to per-class balancing,
// statistically equivalent to round-robin on homogeneous replicas).
func ClusterScaling(setup ModelSetup, opts RunOptions) ([]ClusterPoint, error) {
	opts.fill()
	perReplica := ClusterPerReplicaRPS(setup)
	type clusterCell struct {
		n      int
		router string
		reqs   []*request.Request
	}
	var cells []clusterCell
	for _, n := range ClusterReplicaCounts() {
		reqs, err := mixedTrace(setup, workload.DefaultMix, 1.0, perReplica*float64(n), opts.Duration, opts.Seed)
		if err != nil {
			return nil, err
		}
		for _, routerName := range cluster.RouterNames() {
			cells = append(cells, clusterCell{n: n, router: routerName, reqs: reqs})
		}
	}
	sums, err := runJobs(opts.Parallel, len(cells), func(i int) (*metrics.ClusterSummary, error) {
		c := cells[i]
		// All-mixed Roles keep the n = 1 anchor a one-replica cluster.
		res, err := Scenario{
			System: SysAdaServe, Setup: setup, Seed: opts.Seed,
			Roles: make([]cluster.Role, c.n), Router: c.router, Trace: c.reqs,
		}.Run()
		if err != nil {
			return nil, fmt.Errorf("cluster n=%d router=%s: %w", c.n, c.router, err)
		}
		return res.Cluster.Summary, nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]ClusterPoint, len(cells))
	for i, c := range cells {
		pts[i] = ClusterPoint{Replicas: c.n, Router: c.router, Sum: sums[i]}
	}
	return pts, nil
}

// RenderClusterScaling formats the replica-scaling experiment as aligned
// tables: attainment, goodput and request imbalance, one row per replica
// count and one column per router.
func RenderClusterScaling(pts []ClusterPoint) string {
	routers := distinct(pts, func(p ClusterPoint) string { return p.Router })
	counts := distinct(pts, func(p ClusterPoint) int { return p.Replicas })
	sort.Ints(counts)
	cell := func(n int, router string, f func(*metrics.ClusterSummary) float64) string {
		for _, p := range pts {
			if p.Replicas == n && p.Router == router {
				return fmt.Sprintf("%.2f", f(p.Sum))
			}
		}
		return ""
	}
	var b strings.Builder
	for _, m := range []struct {
		name string
		f    func(*metrics.ClusterSummary) float64
	}{
		{"attainment %", func(s *metrics.ClusterSummary) float64 { return 100 * s.Attainment() }},
		{"goodput tok/s", func(s *metrics.ClusterSummary) float64 { return s.Goodput() }},
		{"request imbalance (max/mean)", (*metrics.ClusterSummary).RequestImbalance},
	} {
		fmt.Fprintf(&b, "%-10s", "replicas")
		for _, r := range routers {
			fmt.Fprintf(&b, "%16s", r)
		}
		fmt.Fprintf(&b, "   [%s]\n", m.name)
		for _, n := range counts {
			fmt.Fprintf(&b, "%-10d", n)
			for _, r := range routers {
				fmt.Fprintf(&b, "%16s", cell(n, r, m.f))
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return strings.TrimSuffix(b.String(), "\n")
}
