// Streaming: drive AdaServe through the event-driven serving API with a
// closed-loop workload instead of a pre-built trace.
//
// The example plays a multi-turn chat: one opening request per user is
// submitted up front, and every time a turn finishes the workload's FollowUp
// submits the user's next turn after a think-time pause — request arrivals
// depend on earlier completions, which no closed trace replay can express.
// An observer prints the per-request lifecycle (admission, first token, SLO
// violations, completion) and the driver's periodic rolling-metric
// snapshots.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"adaserve/internal/experiments"
	"adaserve/internal/request"
	"adaserve/internal/serve"
	"adaserve/internal/workload"
)

const (
	users     = 4   // concurrent chat users
	turns     = 3   // turns per user
	thinkTime = 2.5 // seconds between a reply and the user's next turn
)

// chat is the multi-turn workload: experiments.Scenario submits its opening
// turns before the run and asks FollowUp for the next turn whenever one
// finishes.
type chat struct {
	gen  *workload.Generator
	turn map[int]int // request ID -> turn number
}

// InitialRequests opens one conversation per user.
func (c *chat) InitialRequests() []*request.Request {
	var out []*request.Request
	for u := 0; u < users; u++ {
		r := c.gen.MakeAt(request.Chat, 0.3*float64(u))
		c.turn[r.ID] = 1
		out = append(out, r)
	}
	return out
}

// FollowUp returns the user's next turn after a think-time pause, or nil
// once the conversation is over.
func (c *chat) FollowUp(done *request.Request, now float64) *request.Request {
	t := c.turn[done.ID]
	if t >= turns {
		return nil
	}
	next := c.gen.MakeAt(request.Chat, now+thinkTime)
	c.turn[next.ID] = t + 1
	fmt.Printf("[t=%6.2fs]   ... user types turn %d (req %d) arriving t=%.2fs\n",
		now, t+1, next.ID, next.ArrivalTime)
	return next
}

func main() {
	// 1. The chat workload: every user's turns draw from one generator.
	setup := experiments.Llama70B()
	gen, err := experiments.NewGenerator(setup, workload.Mix{0, 1, 0}, 1.0, 42)
	if err != nil {
		log.Fatal(err)
	}
	c := &chat{gen: gen, turn: map[int]int{}}

	// 2. The observer narrates the lifecycle. It runs ahead of the
	//    workload's FollowUp, so each finished line precedes its follow-up.
	narrate := serve.ObserverFunc(func(ev serve.Event) {
		switch e := ev.(type) {
		case serve.RequestAdmitted:
			fmt.Printf("[t=%6.2fs] turn %d of req %-3d admitted (prompt %d tok)\n",
				e.Time, c.turn[e.Req.ID], e.Req.ID, e.Req.PromptLen)
		case serve.FirstToken:
			fmt.Printf("[t=%6.2fs] req %-3d first token after %.0f ms\n",
				e.Time, e.Req.ID, 1e3*e.TTFT)
		case serve.SLOViolated:
			fmt.Printf("[t=%6.2fs] req %-3d missed its %s SLO\n", e.Time, e.Req.ID, e.Kind)
		case serve.RequestFinished:
			verdict := "met SLO"
			if !e.Attained {
				verdict = "MISSED SLO"
			}
			fmt.Printf("[t=%6.2fs] req %-3d finished: %d tok, avg TPOT %.1f ms (%s)\n",
				e.Time, e.Req.ID, e.Req.OutputLen(), 1e3*e.TPOT, verdict)
		case serve.Snapshot:
			s := e.Stats
			fmt.Printf("[t=%6.2fs] -- snapshot: %d running, %d finished, attain %.0f%%, window goodput %.1f tok/s\n",
				e.Time, s.Running, s.Finished, 100*s.Attainment(), s.WindowGoodput)
		}
	})

	// 3. Run one AdaServe system to completion with a rolling-metric
	//    snapshot every 5 simulated seconds: the driver drains submissions,
	//    follow-ups keep feeding it, and the run ends when the last turn
	//    retires.
	res, err := experiments.Scenario{
		System: experiments.SysAdaServe, Setup: setup, Seed: 1,
		Sessions:      c,
		Observers:     []serve.Observer{narrate},
		SnapshotEvery: 5, Window: 10,
	}.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println(res.Summary)
	rr := res.Serve
	fmt.Printf("\n%d turns across %d users, %d events streamed, simulated %.1fs over %d iterations\n",
		users*turns, users, rr.Events, rr.EndTime, rr.Iterations)
}
