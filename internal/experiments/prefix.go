package experiments

import (
	"fmt"
	"strings"

	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// PrefixFleet is the prefix experiment's cluster size: three mixed replicas,
// the smallest fleet where routing genuinely fragments a tenant's KV (on one
// replica every router trivially hits the cache).
const PrefixFleet = 3

// PrefixHostTier sizes the experiment's host offload pool in KV blocks.
const PrefixHostTier = 2048

// Session-workload shape: enough tenants that every replica serves several
// concurrently, a system prompt long enough that skipping its prefill is
// material, and enough turns that the growing conversation history — which
// only the replica that served the previous turn holds — dominates prompt
// length by the end.
const (
	// PrefixTenants is exported for the CLI banner.
	PrefixTenants      = 12
	prefixSystemPrompt = 1024
	prefixTurns        = 6
	prefixThink        = 0.5
	prefixSpacing      = 0.25
)

// PrefixRouters are the routing policies the prefix experiment compares:
// the two load-signal baselines and the prefix-affinity policy under test
// (slo-aware is omitted — the session workload is single-category, where it
// degrades to least-loaded).
func PrefixRouters() []string { return []string{"round-robin", "least-loaded", "prefix-affinity"} }

// PrefixPoint is one (router, caching) cell of the prefix experiment.
type PrefixPoint struct {
	Router string
	// Cached is false for the prefix-disabled baseline rows.
	Cached bool
	Sum    *metrics.ClusterSummary
}

// NewSessions builds the experiment's session workload for a setup: the
// multi-tenant, multi-turn conversations every cell of the sweep replays
// (shared with adaserve-sim's -prefix wiring).
func NewSessions(setup ModelSetup, seed uint64) (*workload.Sessions, error) {
	return workload.NewSessions(workload.SessionsConfig{
		Seed:            mathutil.Hash2(seed, 0x5e5510),
		Tenants:         PrefixTenants,
		SystemPromptLen: prefixSystemPrompt,
		Turns:           prefixTurns,
		Category:        request.Chat,
		BaselineLatency: setup.BaselineLatency(),
		ArrivalSpacing:  prefixSpacing,
		ThinkTime:       prefixThink,
	})
}

// PrefixCell runs the session workload on one cluster configuration: a
// PrefixFleet-replica AdaServe cluster behind the named router, with
// shared-prefix caching (and the host tier) enabled unless cached is false.
// The run is closed-loop: each tenant's follow-up turn is submitted from the
// finish callback of the previous one, so arrivals react to serving speed
// exactly as a session-bound client would.
func PrefixCell(setup ModelSetup, routerName string, cached bool, opts RunOptions) (*metrics.ClusterSummary, error) {
	sessions, err := NewSessions(setup, opts.Seed)
	if err != nil {
		return nil, err
	}
	sc := Scenario{
		System: SysAdaServe, Setup: setup, Seed: opts.Seed,
		Replicas: PrefixFleet, Router: routerName, Sessions: sessions,
	}
	if cached {
		sc.Build = BuildOptions{Prefix: true, PrefixHostBlocks: PrefixHostTier}
	}
	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	return res.Cluster.Summary, nil
}

// PrefixCaching runs the prefix experiment: the session workload over every
// router with caching off (the baseline grid, where routers differ only in
// load balance) and on (where prefix-affinity routes turns back to their
// KV). The headline is TTFT attainment at equal load: with caching on, the
// affinity router serves follow-up prompts from cache and skips their
// prefill, which neither load-signal baseline can do once a tenant's blocks
// are fragmented across the fleet.
func PrefixCaching(setup ModelSetup, opts RunOptions) ([]PrefixPoint, error) {
	opts.fill()
	type prefixCell struct {
		router string
		cached bool
	}
	var cells []prefixCell
	for _, cached := range []bool{false, true} {
		for _, routerName := range PrefixRouters() {
			cells = append(cells, prefixCell{router: routerName, cached: cached})
		}
	}
	sums, err := runJobs(opts.Parallel, len(cells), func(i int) (*metrics.ClusterSummary, error) {
		c := cells[i]
		sum, err := PrefixCell(setup, c.router, c.cached, opts)
		if err != nil {
			return nil, fmt.Errorf("prefix router=%s cached=%v: %w", c.router, c.cached, err)
		}
		return sum, nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]PrefixPoint, len(cells))
	for i, c := range cells {
		pts[i] = PrefixPoint{Router: c.router, Cached: c.cached, Sum: sums[i]}
	}
	return pts, nil
}

// RenderPrefix formats the prefix experiment: one row per (caching, router)
// cell with the TTFT/TPOT attainment headline and the cache economics.
func RenderPrefix(pts []PrefixPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s%-10s%10s%10s%12s%10s%12s%10s%10s\n",
		"router", "prefix", "ttft%", "attain%", "goodput", "hit%", "savedTok", "evict", "reloads")
	for _, p := range pts {
		mode := "off"
		if p.Cached {
			mode = "on"
		}
		hitRate, saved, evict, reloads := 0.0, 0, 0, 0
		if p.Sum.Prefix != nil {
			hitRate = 100 * p.Sum.Prefix.HitRate()
			saved = p.Sum.Prefix.HitTokens
			evict = p.Sum.Prefix.Evictions
			reloads = p.Sum.Prefix.Reloads
		}
		fmt.Fprintf(&b, "%-18s%-10s%10.1f%10.1f%12.1f%10.1f%12d%10d%10d\n",
			p.Router, mode,
			100*p.Sum.TTFTAttainment(), 100*p.Sum.Attainment(), p.Sum.Goodput(),
			hitRate, saved, evict, reloads)
	}
	return strings.TrimSuffix(b.String(), "\n")
}
