package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"adaserve/internal/request"
)

// finished returns a request that finished: first token at arrival+ttft,
// tokens output tokens decoded tpot apart.
func finished(id int, arrival, ttft, tpot float64, tokens int) *request.Request {
	r := request.New(id, request.Chat, 0.05, arrival, 100, tokens, uint64(id))
	r.TTFTSLO = 1.0
	r.Phase = request.Done
	r.FirstTokenTime = arrival + ttft
	r.FirstDecodeTime = arrival + ttft
	r.DoneTime = r.FirstDecodeTime + tpot*float64(tokens)
	for i := 0; i < tokens; i++ {
		r.Output = append(r.Output, 0)
	}
	r.VerifySteps, r.AcceptedTokens = tokens/2, tokens
	return r
}

func TestSimStatsCountsOfferedRequests(t *testing.T) {
	ok := finished(0, 0, 0.2, 0.040, 10)       // meets TTFT and TPOT
	slowTTFT := finished(1, 1, 1.5, 0.040, 10) // misses TTFT only
	slowTPOT := finished(2, 2, 0.2, 0.080, 10) // misses TPOT only
	rejected := request.New(3, request.Chat, 0.05, 3, 100, 10, 3)
	o := &outcome{offered: []*request.Request{ok, slowTTFT, slowTPOT, rejected}, rejected: 1}
	if err := check(o); err == nil {
		t.Fatal("check passed with fewer than minFinished finished requests")
	}

	var s simStats
	s.add(o)
	if s.offered != 4 || s.finished != 3 || s.attained != 1 {
		t.Fatalf("offered/finished/attained = %d/%d/%d, want 4/3/1", s.offered, s.finished, s.attained)
	}
	// One of four offered requests met every SLO: the rejected one counts as
	// a miss even though no serving-side summary ever saw it.
	if got := s.attainPct(); got != 25 {
		t.Errorf("attainment %g%%, want 25%%", got)
	}
	// Goodput: the attaining request's 10 tokens over the span from the
	// first arrival (0) to the last completion (2.2 + 0.8 = 3.0).
	if got := s.goodput(); math.Abs(got-10/3.0) > 1e-12 {
		t.Errorf("goodput %g, want %g", got, 10/3.0)
	}
	if got := percentile(s.ttft, 0.99); got != 1.5 {
		t.Errorf("ttft p99 %g, want 1.5", got)
	}
	if got := percentile(s.tpot, 0.50); math.Abs(got-0.040) > 1e-12 {
		t.Errorf("tpot p50 %g, want 0.040", got)
	}
	if got := s.acceptPerStep(); got != 2 {
		t.Errorf("accepted per step %g, want 2", got)
	}
}

func TestCheckConservation(t *testing.T) {
	var reqs []*request.Request
	for i := 0; i < minFinished; i++ {
		reqs = append(reqs, finished(i, float64(i), 0.1, 0.04, 4))
	}
	lost := request.New(minFinished, request.Chat, 0.05, 0, 100, 10, 1)
	o := &outcome{offered: append(reqs, lost)}
	if err := check(o); err == nil {
		t.Error("check passed with an unfinished request that was neither rejected nor dropped")
	}
	o.dropped = 1
	if err := check(o); err != nil {
		t.Errorf("check: %v", err)
	}
}

func TestDigestTracksSimulatedOutcome(t *testing.T) {
	a := &outcome{offered: []*request.Request{finished(1, 0, 0.1, 0.04, 4), finished(0, 0, 0.1, 0.04, 4)}}
	b := &outcome{offered: []*request.Request{a.offered[1], a.offered[0]}}
	before := digest(a)
	if digest(b) != before {
		t.Error("digest depends on offered order")
	}
	a.offered[0].DoneTime += 1e-9
	if digest(a) == before {
		t.Error("digest missed a changed completion time")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(append([]float64(nil), xs...), 0.5); got != 3 {
		t.Errorf("p50 = %g", got)
	}
	if got := percentile(append([]float64(nil), xs...), 0.99); got != 5 {
		t.Errorf("p99 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s (%s) in BENCHMARK.json, reported as %s (%s)",
					c.kind, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if len(doc.Workloads) != len(names) {
		t.Fatalf("workloads %v in BENCHMARK.json, %v defined", doc.Workloads, names)
	}
	for i, w := range doc.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q defined", i, w.Name, names[i])
		}
	}
}
