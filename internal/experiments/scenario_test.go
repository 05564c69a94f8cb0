package experiments

import (
	"strings"
	"testing"

	"adaserve/internal/adaptive"
	"adaserve/internal/cluster"
	"adaserve/internal/faults"
	"adaserve/internal/request"
	"adaserve/internal/trace"
	"adaserve/internal/workload"
)

// TestScenarioValidate is the up-front validation table: every refused
// combination fails with a one-line error before any source or backend is
// built.
func TestScenarioValidate(t *testing.T) {
	crash, err := faults.ParseSpec("crash@1:r0")
	if err != nil {
		t.Fatal(err)
	}
	beyond, err := faults.ParseSpec("crash@1:r5")
	if err != nil {
		t.Fatal(err)
	}
	roles, err := cluster.ParseSplit("2P2D")
	if err != nil {
		t.Fatal(err)
	}
	base := func() Scenario { return Scenario{System: SysAdaServe, Setup: Llama70B(), Seed: 1, Duration: 10} }
	cases := []struct {
		name    string
		edit    func(*Scenario)
		wantErr string
	}{
		{name: "single system", edit: func(*Scenario) {}},
		{name: "unknown system", edit: func(s *Scenario) { s.System = "nope" }, wantErr: "unknown system"},
		{name: "negative replicas", edit: func(s *Scenario) { s.Replicas = -1 }, wantErr: "need at least 1"},
		{name: "roles imply count", edit: func(s *Scenario) { s.Roles, s.Router = roles, "slo-aware" }},
		{name: "agreeing replicas", edit: func(s *Scenario) { s.Roles, s.Replicas, s.Router = roles, 4, "slo-aware" }},
		{name: "contradicting replicas", edit: func(s *Scenario) { s.Roles, s.Replicas, s.Router = roles, 3, "slo-aware" }, wantErr: "contradicts"},
		{name: "fleet without router", edit: func(s *Scenario) { s.Replicas = 2 }, wantErr: "router"},
		{name: "unknown router", edit: func(s *Scenario) { s.Router = "nope" }, wantErr: "router"},
		{name: "unknown policy", edit: func(s *Scenario) { s.Replicas, s.Router, s.Autoscale = 4, "slo-aware", "nope" }, wantErr: "unknown policy"},
		{name: "autoscale single", edit: func(s *Scenario) { s.Autoscale = "rate-prop" }, wantErr: "capacity fleet"},
		{name: "elastic single", edit: func(s *Scenario) { s.Elastic = &cluster.ElasticOptions{InitialActive: 1} }, wantErr: "elastic"},
		{name: "faults single", edit: func(s *Scenario) { s.Faults = crash }, wantErr: "need a cluster"},
		{name: "faults fleet", edit: func(s *Scenario) { s.Faults, s.Replicas, s.Router = crash, 2, "slo-aware" }},
		{name: "faults beyond fleet", edit: func(s *Scenario) { s.Faults, s.Replicas, s.Router = beyond, 2, "slo-aware" }, wantErr: "targets replica 5"},
		{name: "tuning non-AdaServe", edit: func(s *Scenario) { s.System, s.Adaptive = SysVLLM, &adaptive.Config{} }, wantErr: "needs AdaServe"},
		{name: "admission non-AdaServe", edit: func(s *Scenario) { s.System, s.Adaptive = SysVLLM, &adaptive.Config{DisableTuning: true} }},
		{name: "host tier without prefix", edit: func(s *Scenario) { s.Build.PrefixHostBlocks = 64 }, wantErr: "needs prefix caching"},
		{name: "negative host tier", edit: func(s *Scenario) { s.Build = BuildOptions{Prefix: true, PrefixHostBlocks: -1} }, wantErr: "non-negative"},
		{name: "unknown profile", edit: func(s *Scenario) { s.OpenLoop = &OpenLoop{Profile: "nope", MeanRPS: 1} }, wantErr: "rate profile"},
		{name: "two sources", edit: func(s *Scenario) {
			s.Trace, s.Replay = []*request.Request{}, &trace.Trace{}
		}, wantErr: "closed trace and trace replay each pick the workload source; set at most one"},
		{name: "three sources", edit: func(s *Scenario) {
			s.OpenLoop, s.Sessions, s.Replay = &OpenLoop{Profile: "constant", MeanRPS: 1}, &workload.Sessions{}, &trace.Trace{}
		}, wantErr: "open loop and sessions and trace replay"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := base()
			c.edit(&sc)
			err := sc.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("error = %v, want one line containing %q", err, c.wantErr)
			}
		})
	}
}

// TestScenarioRunNeedsWorkload pins that a valid scenario with no source is
// refused by Run rather than run empty.
func TestScenarioRunNeedsWorkload(t *testing.T) {
	if _, err := (Scenario{System: SysAdaServe, Setup: Llama70B(), Seed: 1}).Run(); err == nil || !strings.Contains(err.Error(), "no workload") {
		t.Fatalf("error = %v, want a missing-workload error", err)
	}
}

// TestScenarioTraceIsTemplate pins that a closed trace is replayed from
// private copies: the caller's requests stay untouched, so one trace feeds
// any number of scenarios with identical results.
func TestScenarioTraceIsTemplate(t *testing.T) {
	setup := Llama70B()
	reqs, err := mixedTrace(setup, workload.DefaultMix, 1.0, 3.0, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{System: SysAdaServe, Setup: setup, Seed: 1, Trace: reqs}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.Phase != request.Queued || r.OutputLen() != 0 {
			t.Fatalf("request %d mutated by the run: phase %s, %d tokens", r.ID, r.Phase, r.OutputLen())
		}
	}
	b, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.String() != b.Summary.String() || a.Serve.Iterations != b.Serve.Iterations {
		t.Fatal("two runs of one scenario diverged")
	}
	if a.Cluster != nil || a.Summary.Finished != len(reqs) {
		t.Fatalf("one replica with no roles must run one system over the whole trace: cluster %v, finished %d of %d",
			a.Cluster != nil, a.Summary.Finished, len(reqs))
	}
}

// TestScenarioSingleSystemSessions runs the closed-loop session workload on
// one prefix-cached system: follow-ups arrive as turns finish, and the
// summary covers every turn the sessions issued.
func TestScenarioSingleSystemSessions(t *testing.T) {
	setup := Llama70B()
	sessions, err := NewSessions(setup, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Scenario{
		System: SysAdaServe, Setup: setup, Seed: 1,
		Build:    BuildOptions{Prefix: true, PrefixHostBlocks: PrefixHostTier},
		Sessions: sessions,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Finished != sessions.Issued() || sessions.Issued() <= PrefixTenants {
		t.Fatalf("finished %d of %d issued turns (%d tenants)", res.Summary.Finished, sessions.Issued(), PrefixTenants)
	}
}
