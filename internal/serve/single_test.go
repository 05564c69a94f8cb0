package serve_test

import (
	"strings"
	"testing"

	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
)

// Closed trace replay on one system: a SingleSystem backend over a
// TraceSource, run until every request is done, so SLO attainment covers the
// whole trace with no truncation bias.

// replayWith runs reqs to completion on sys under opts and summarizes them in
// trace order. An invalid trace or an aborted run is an error.
func replayWith(sys sched.System, reqs []*request.Request, opts serve.Options) (*serve.Result, *metrics.Summary, error) {
	srv, err := serve.NewServer(serve.SingleSystem(sys), opts)
	if err != nil {
		return nil, nil, err
	}
	src, err := serve.NewTraceSource(reqs)
	if err != nil {
		return nil, nil, err
	}
	rr, err := srv.Run(src)
	if err != nil {
		return nil, nil, err
	}
	return rr, metrics.Summarize(sys.Name(), reqs, rr.Breakdown), nil
}

// replay is replayWith under the default bounds; any error fails the test.
func replay(t *testing.T, sys sched.System, reqs []*request.Request) (*serve.Result, *metrics.Summary) {
	t.Helper()
	rr, sum, err := replayWith(sys, reqs, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rr, sum
}

func TestRunCompletesAllRequests(t *testing.T) {
	reqs := mkReqs(10, 0.1)
	rr, sum := replay(t, testSystem(t, 3), reqs)
	if sum.Finished != 10 {
		t.Fatalf("finished %d of 10", sum.Finished)
	}
	if rr.EndTime <= 0 || rr.Iterations <= 0 {
		t.Fatalf("degenerate result %+v", rr)
	}
	for _, r := range reqs {
		if r.Phase != request.Done {
			t.Fatalf("request %d phase %s", r.ID, r.Phase)
		}
	}
}

func TestRunHandlesIdleGaps(t *testing.T) {
	// Arrivals separated by long gaps: the driver must jump the clock.
	rr, sum := replay(t, testSystem(t, 3), mkReqs(3, 100.0))
	if rr.EndTime < 200 {
		t.Fatalf("clock did not advance across gaps: end %.1f", rr.EndTime)
	}
	// With near-zero load every request should attain.
	if sum.Attainment() != 1 {
		t.Fatalf("attainment %.2f at zero load", sum.Attainment())
	}
}

func TestRunDefaultBoundsPermitNormalRuns(t *testing.T) {
	// Zero-valued Options mean the generous defaults, not zero budgets:
	// replay would fail the test on any abort.
	replay(t, testSystem(t, 3), mkReqs(3, 0.05))
}

func TestRunDeterminism(t *testing.T) {
	run := func() (float64, int) {
		rr, _ := replay(t, testSystem(t, 3), mkReqs(20, 0.05))
		return rr.EndTime, rr.Iterations
	}
	e1, i1 := run()
	e2, i2 := run()
	if e1 != e2 || i1 != i2 {
		t.Fatalf("runs diverged: (%g,%d) vs (%g,%d)", e1, i1, e2, i2)
	}
}

func TestRunBreakdownAccumulates(t *testing.T) {
	rr, _ := replay(t, testSystem(t, 3), mkReqs(5, 0.05))
	b := rr.Breakdown
	if b.Verification <= 0 || b.Prefill <= 0 || b.Scheduling <= 0 {
		t.Fatalf("breakdown %+v", b)
	}
	// vLLM does not speculate.
	if b.Speculation != 0 {
		t.Fatalf("vLLM reported speculation time %g", b.Speculation)
	}
	// Total busy time cannot exceed the simulated span.
	if b.Total() > rr.EndTime {
		t.Fatalf("busy %.3fs exceeds wall %.3fs", b.Total(), rr.EndTime)
	}
}

func TestRunArrivalsVisibleAtBoundaries(t *testing.T) {
	// A request arriving mid-iteration must not be admitted until the
	// iteration after its arrival: its AdmitTime >= its ArrivalTime.
	reqs := mkReqs(10, 0.013)
	replay(t, testSystem(t, 3), reqs)
	for _, r := range reqs {
		if r.AdmitTime < r.ArrivalTime {
			t.Fatalf("request %d admitted at %.3f before arrival %.3f",
				r.ID, r.AdmitTime, r.ArrivalTime)
		}
	}
}

func TestReplayValidatesRequests(t *testing.T) {
	bad := request.New(1, request.Chat, 0, 0, 64, 8, 1)
	if _, _, err := replayWith(testSystem(t, 3), []*request.Request{bad}, serve.Options{}); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestReplayDetectsDeadlock(t *testing.T) {
	// KV too small for the request: admission can never succeed.
	reqs := []*request.Request{request.New(1, request.Chat, 0.05, 0, 64, 8, 1)}
	_, _, err := replayWith(testSystemKV(t, 3, 32), reqs, serve.Options{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestReplayRespectsMaxSimTime(t *testing.T) {
	// Arrivals span 5000s against a 10s budget.
	_, _, err := replayWith(testSystem(t, 3), mkReqs(5, 1000.0), serve.Options{MaxSimTime: 10})
	if err == nil || !strings.Contains(err.Error(), "max simulated time") {
		t.Fatalf("want max-sim-time error, got %v", err)
	}
}

func TestReplayRespectsMaxIterations(t *testing.T) {
	_, _, err := replayWith(testSystem(t, 3), mkReqs(5, 0.05), serve.Options{MaxIterations: 2})
	if err == nil || !strings.Contains(err.Error(), "max iterations") {
		t.Fatalf("want max-iterations error, got %v", err)
	}
}
