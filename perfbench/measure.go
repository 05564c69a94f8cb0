package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"adaserve/internal/metrics"
	"adaserve/internal/request"
)

// outcome is what one simulation produced, in simulated terms only: it is
// identical for every run of one seed, traced or not.
type outcome struct {
	// offered is every request presented to the serving system, rejected
	// arrivals included.
	offered []*request.Request
	// rejected were turned away by the admission gate; dropped exhausted
	// their fault-recovery retry budget.
	rejected, dropped int

	breakdown  metrics.Breakdown
	iterations int
	events     int

	// Layer summaries; nil where the workload does not run the layer.
	prefix    *metrics.PrefixSummary
	faults    *metrics.FaultSummary
	autoscale *metrics.AutoscaleSummary
	admission *metrics.AdmissionSummary
	imbalance float64
}

// simStats are the simulated end-to-end statistics of one or more
// simulations, pooled over their offered requests.
type simStats struct {
	offered, finished, attained int
	// outTokens are output tokens of finished requests; goodTokens those of
	// SLO-attaining ones.
	outTokens, goodTokens int
	// span is the summed simulated span (first arrival to last completion).
	span float64
	// ttft (seconds) and tpot (seconds per token) over finished requests.
	ttft, tpot []float64
	// verifySteps and accepted sum the per-request verification counters of
	// finished requests (Figure 12).
	verifySteps, accepted int
}

// attainedAll reports whether a request met every SLO it carries. Requests
// that never finished (rejected, dropped) miss.
func attainedAll(r *request.Request) bool {
	return r.Phase == request.Done && r.AttainedSLO() && r.AttainedTTFT()
}

// add pools one simulation's offered requests into s. Attainment and goodput
// are over offered requests, not the admitted population metrics.Summary
// divides by: a gate that rejects more must not look better for it.
func (s *simStats) add(o *outcome) {
	s.offered += len(o.offered)
	first, last := math.Inf(1), math.Inf(-1)
	for _, r := range o.offered {
		first = math.Min(first, r.ArrivalTime)
		if r.Phase != request.Done {
			continue
		}
		last = math.Max(last, r.DoneTime)
		s.finished++
		s.outTokens += r.OutputLen()
		s.verifySteps += r.VerifySteps
		s.accepted += r.AcceptedTokens
		s.tpot = append(s.tpot, r.AvgTPOT(r.DoneTime))
		if t := r.TTFT(); t >= 0 {
			s.ttft = append(s.ttft, t)
		}
		if attainedAll(r) {
			s.attained++
			s.goodTokens += r.OutputLen()
		}
	}
	if last > first {
		s.span += last - first
	}
}

func (s *simStats) attainPct() float64 { return 100 * ratio(float64(s.attained), float64(s.offered)) }
func (s *simStats) goodput() float64   { return ratio(float64(s.goodTokens), s.span) }
func (s *simStats) acceptPerStep() float64 {
	return ratio(float64(s.accepted), float64(s.verifySteps))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, or 0
// for an empty sample. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// check runs the per-simulation correctness checks: conservation of offered
// requests, and enough finished requests for a p99.
func check(o *outcome) error {
	finished := 0
	for _, r := range o.offered {
		if r.Phase == request.Done {
			finished++
		}
	}
	if n := len(o.offered); n != finished+o.rejected+o.dropped {
		return fmt.Errorf("conservation: %d offered != %d finished + %d rejected + %d dropped",
			n, finished, o.rejected, o.dropped)
	}
	if finished < minFinished {
		return fmt.Errorf("only %d requests finished, want at least %d", finished, minFinished)
	}
	return nil
}

// digest fingerprints a simulation's simulated statistics: every offered
// request's lifecycle in ID order plus the run and layer counters. Equal
// digests mean a change left the simulation itself untouched.
func digest(o *outcome) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, r := range sortedByID(o.offered) {
		put(float64(r.ID), float64(r.Category), float64(r.Phase), r.ArrivalTime,
			r.FirstTokenTime, r.DoneTime, float64(r.OutputLen()), float64(r.VerifySteps),
			float64(r.AcceptedTokens), float64(r.Retries), float64(r.PreemptCount), r.TPOTSLO)
	}
	put(float64(o.rejected), float64(o.dropped), float64(o.iterations), float64(o.events),
		o.breakdown.Scheduling, o.breakdown.Speculation, o.breakdown.Verification, o.breakdown.Prefill,
		o.imbalance)
	if p := o.prefix; p != nil {
		put(float64(p.Lookups), float64(p.Hits), float64(p.HitTokens), float64(p.Evictions),
			float64(p.HostEvictions), float64(p.Reloads), float64(p.ReloadedTokens), p.ReloadStallTime)
	}
	if f := o.faults; f != nil {
		put(float64(f.LostRequests), float64(f.Retried), float64(f.Dropped), float64(f.Hedged),
			float64(f.DuplicateCancelled), f.UnavailableReplicaSeconds)
	}
	if a := o.autoscale; a != nil {
		put(float64(a.ScaleUps), float64(a.ScaleDowns), float64(a.DrainMigrations), a.ReplicaSeconds)
	}
	if a := o.admission; a != nil {
		put(float64(a.Offered), float64(a.Admitted), float64(a.Degraded), float64(a.Rejected))
	}
	return h.Sum64()
}

// sortedByID returns the requests in ID order.
func sortedByID(reqs []*request.Request) []*request.Request {
	out := append([]*request.Request(nil), reqs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// mix derives the k-th input seed from the benchmark seed (splitmix64), so
// the same --seed always generates the same inputs.
func mix(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
