package obs

import (
	"reflect"
	"testing"

	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// TestSpanRecorderCommitAllocatesNothing gates the recorder's hot path:
// recording a TokensCommitted on a live timeline packs it into the arena
// without allocating. Each call commits to a different live timeline, so a
// per-timeline slice of marks would allocate on every call.
func TestSpanRecorderCommitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const runs = 1000
	sr := NewSpanRecorder()
	evs := make([]serve.Event, runs+2)
	for i := range evs {
		r := mkReq(i, 0)
		sr.OnEvent(serve.RequestAdmitted{EventMeta: meta(0, i), Req: r, Instance: 0})
		evs[i] = serve.TokensCommitted{Commit: &serve.Commit{EventMeta: meta(1, len(evs)+i), Req: r, Instance: 0, Tokens: 2, Total: 2}}
	}
	sr.OnEvent(evs[0]) // starts the first arena chunk
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		sr.OnEvent(evs[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("OnEvent(TokensCommitted) allocates %.2f objects per call", allocs)
	}
}

// TestSpanMarksMergeInDeliveryOrder interleaves commits with other marks
// across two requests and over an arena chunk boundary: each timeline's
// Marks must list every mark in delivery order, built once.
func TestSpanMarksMergeInDeliveryOrder(t *testing.T) {
	sr := NewSpanRecorder()
	reqs := []*request.Request{mkReq(0, 0), mkReq(1, 0)}
	want := make([][]Mark, len(reqs))
	seq := 0
	next := func() serve.EventMeta { seq++; return meta(float64(seq), seq) }
	commit := func(i, tokens int) {
		m := next()
		sr.OnEvent(serve.TokensCommitted{Commit: &serve.Commit{EventMeta: m, Req: reqs[i], Instance: i, Tokens: tokens}})
		want[i] = append(want[i], Mark{Name: "commit", Time: m.Time, Instance: i, Tokens: tokens})
	}
	for i, r := range reqs {
		m := next()
		sr.OnEvent(serve.SLOViolated{EventMeta: m, Req: r, Instance: i, Kind: serve.ViolationTTFT})
		want[i] = append(want[i], Mark{Name: "slo-ttft", Time: m.Time, Instance: i})
	}
	for k := 0; k < commitChunk+3; k++ {
		commit(k%2, k%5+1)
		if k == 7 || k == commitChunk {
			m := next()
			sr.OnEvent(serve.RequestHedged{EventMeta: m, Req: reqs[1], Instance: 1})
			want[1] = append(want[1], Mark{Name: "hedged", Time: m.Time, Instance: 1})
		}
	}
	for i, r := range reqs {
		m := next()
		sr.OnEvent(serve.SLOViolated{EventMeta: m, Req: r, Instance: i, Kind: serve.ViolationTPOT})
		want[i] = append(want[i], Mark{Name: "slo-tpot", Time: m.Time, Instance: i})
		sr.OnEvent(serve.RequestFinished{EventMeta: next(), Req: r, Instance: i})
	}
	tls := sr.Timelines()
	for i, tl := range tls {
		if !reflect.DeepEqual(tl.Marks, want[i]) {
			t.Fatalf("request %d: %d marks, want %d in delivery order", i, len(tl.Marks), len(want[i]))
		}
	}
	if again := sr.Timelines(); &again[0].Marks[0] != &tls[0].Marks[0] {
		t.Fatal("Timelines rebuilt the marks of an already built timeline")
	}
}
