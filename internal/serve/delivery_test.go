package serve_test

import (
	"testing"

	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// runLongDecodes replays 16 requests that each decode 512 tokens on a fresh
// single system, with obs subscribed (none when nil), and returns the number
// of events delivered.
func runLongDecodes(t *testing.T, obs serve.Observer) int {
	t.Helper()
	reqs := make([]*request.Request, 16)
	for i := range reqs {
		reqs[i] = request.New(i, request.Chat, 0.05, float64(i)*0.05, 64, 512, uint64(i)*13+1)
	}
	srv, err := serve.NewServer(serve.SingleSystem(testSystem(t, 3)), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Subscribe(obs)
	src, err := serve.NewTraceSource(reqs)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := srv.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	return rr.Events
}

// TestObservedDeliveryAllocations gates event delivery: a run with one no-op
// observer allocates fewer than events/64 objects beyond the same run bare.
// TokensCommitted fires once per resident request per iteration, so it must
// not allocate per event. The rarer lifecycle events (admitted, first token,
// finished) still box a few objects per request; the requests decode long
// outputs so that, as in a long serving run, commits dominate the stream.
func TestObservedDeliveryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	noop := serve.ObserverFunc(func(serve.Event) {})
	var events int
	bare := testing.AllocsPerRun(2, func() { runLongDecodes(t, nil) })
	observed := testing.AllocsPerRun(2, func() { events = runLongDecodes(t, noop) })
	t.Logf("%d events: %.0f allocations bare, %.0f observed", events, bare, observed)
	if extra := observed - bare; extra >= float64(events)/64 {
		t.Fatalf("observing %d events cost %.0f extra allocations, want < %d", events, extra, events/64)
	}
}

// TestRetainedCommitEventsStayValid pins that the driver never reuses a
// TokensCommitted payload: an observer that keeps every commit event reads,
// after the run, the sequence number and token counts each one carried at
// delivery.
func TestRetainedCommitEventsStayValid(t *testing.T) {
	type seen struct{ seq, tokens, total int }
	var kept []serve.TokensCommitted
	var want []seen
	runLongDecodes(t, serve.ObserverFunc(func(ev serve.Event) {
		if e, ok := ev.(serve.TokensCommitted); ok {
			kept = append(kept, e)
			want = append(want, seen{e.Seq, e.Tokens, e.Total})
		}
	}))
	if len(kept) < 512 {
		t.Fatalf("only %d commit events", len(kept))
	}
	for i, e := range kept {
		if got := (seen{e.Seq, e.Tokens, e.Total}); got != want[i] {
			t.Fatalf("kept commit event %d reads %+v after the run, %+v at delivery", i, got, want[i])
		}
	}
}
