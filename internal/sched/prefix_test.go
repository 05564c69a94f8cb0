package sched

import (
	"testing"

	"adaserve/internal/kvcache"
	"adaserve/internal/request"
)

// prefixSystem builds an AdaServe system whose KV allocator has shared-prefix
// caching enabled, with a sized host tier and a fixed per-token reload price.
func prefixSystem(t *testing.T) System {
	t.Helper()
	cfg := testConfig(t)
	if err := cfg.KV.EnablePrefix(kvcache.PrefixConfig{
		HostBlocks:    256,
		ReloadLatency: func(tokens int) float64 { return 1e-6 * float64(tokens) },
	}); err != nil {
		t.Fatal(err)
	}
	sys, err := NewAdaServe(cfg, AdaServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// sharedPromptReq builds a request whose prompt starts with a 512-token
// shared segment (same content seed across calls) followed by a per-request
// private tail.
func sharedPromptReq(id int, tail int) *request.Request {
	r := request.New(id, request.Chat, 0.05, 0, 512+tail, 8, uint64(id)*977+5)
	r.PromptSegs = []request.PromptSegment{
		{Seed: 0xc0ffee, Len: 512},
		{Seed: uint64(id) + 1, Len: tail},
	}
	return r
}

// TestSchedPrefixReuseAcrossRequests drives the admission-side prefix flow
// end to end through a real scheduler: the first request registers its
// prompt blocks, the second matches them, jumps PrefillDone past the cached
// prefix, and the stats/probe surfaces agree.
func TestSchedPrefixReuseAcrossRequests(t *testing.T) {
	sys := prefixSystem(t)

	first := sharedPromptReq(1, 64)
	if got := sys.(*AdaServe).PrefixCachedTokens(first); got != 0 {
		t.Fatalf("cold cache probe reports %d cached tokens", got)
	}
	sys.Pool().Enqueue(first)
	drain(t, sys, 10000)

	second := sharedPromptReq(2, 96)
	probe := sys.(*AdaServe).PrefixCachedTokens(second)
	if probe < 256 {
		t.Fatalf("probe reports %d cached tokens after the donor finished, want >= 256", probe)
	}
	sys.Pool().Enqueue(second)
	// One iteration admits the request (applying the cached jump) and runs
	// its first — and, with the jump, only — prefill pass.
	sys.Iterate(0)
	if second.PrefillDone < probe {
		t.Fatalf("PrefillDone %d after admission, want the %d-token cached jump", second.PrefillDone, probe)
	}
	drain(t, sys, 10000)

	st, enabled := sys.(*AdaServe).KVPrefixStats()
	if !enabled {
		t.Fatal("KVPrefixStats reports prefix caching disabled")
	}
	if st.Hits < 1 || st.HitTokens < 256 {
		t.Fatalf("stats %+v, want at least one hit covering the shared prompt", st)
	}
	if st.Lookups < 2 {
		t.Fatalf("stats %+v, want a lookup per admission", st)
	}
	// The PromptLen-1 match cap keeps at least one prefill token: the hit
	// can never swallow the second request's whole prompt.
	if st.HitTokens >= second.PromptLen {
		t.Fatalf("hit tokens %d >= prompt %d; the cap must leave prefill work", st.HitTokens, second.PromptLen)
	}
}

// TestSchedPrefixDisabledStatsOff pins the disabled path: no stats surface
// and no probe signal, so the prefix-affinity router falls back cleanly.
func TestSchedPrefixDisabledStatsOff(t *testing.T) {
	cfg := testConfig(t)
	sys, err := NewAdaServe(cfg, AdaServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, enabled := sys.KVPrefixStats(); enabled {
		t.Fatal("plain allocator reports prefix stats")
	}
	if got := sys.PrefixCachedTokens(sharedPromptReq(1, 64)); got != 0 {
		t.Fatalf("disabled probe reports %d cached tokens", got)
	}
}

// TestPrefixProbeAllocatesNothing gates the router probe: once a request's
// fingerprint chain is memoized, PrefixCachedTokens only walks the table.
func TestPrefixProbeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	sys := prefixSystem(t).(*AdaServe)
	donor := sharedPromptReq(1, 64)
	sys.Pool().Enqueue(donor)
	drain(t, sys, 10000)

	r := sharedPromptReq(2, 4000)
	want := sys.PrefixCachedTokens(r) // computes and memoizes the chain
	if want < 256 {
		t.Fatalf("probe reports %d cached tokens, want the shared prompt", want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if sys.PrefixCachedTokens(r) != want {
			t.Fatal("probe answer changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("memoized probe allocates %.1f times, want 0", allocs)
	}
}
