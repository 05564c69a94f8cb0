// Package lm provides the synthetic language models the simulator serves.
//
// A real serving system observes its LLM through exactly two channels: the
// cost of a forward pass (modeled in internal/gpu) and the token-level
// accept/reject behaviour during speculative verification. This package
// reproduces the second channel with a deterministic, seedable synthetic
// autoregressive model:
//
//   - The target model assigns every context a next-token distribution
//     derived from a hash of the recent tokens, with Zipf-shaped mass over a
//     small candidate set (real LLM next-token distributions are similarly
//     concentrated).
//   - The draft model is an alpha-mixture of the target distribution and an
//     independent "mistake" distribution, so draft/target alignment — the
//     single statistic that governs speculation acceptance rates — is a
//     tunable scalar calibrated against the paper's Figure 12.
//
// Everything is deterministic given (model seed, request seed, context), so
// experiments replay exactly.
//
// Hot-path design: the next-token distribution is a pure function of the
// 64-bit context hash, so each call rebuilds it from that hash into one
// entry buffer the model owns. Nothing is memoized (a memo almost never hit:
// beam search and verification rarely revisit a context) and no call
// allocates. Consumers rarely read all of it, and the build is lazy by rank:
//
//   - Candidates are drawn from the hash stream in order and each is deduped
//     only against earlier draws, so the first k entries do not depend on
//     how many are built. Top(ctx, k) builds just those k, which is all a
//     width-w beam or a top-k expansion reads.
//   - Entry probabilities are the per-rank weights, the same for every
//     context, so a sample's rank follows from the uniform draw and a
//     cumulative-weight table before any token is drawn. Sample builds the
//     candidates up to that rank only (all of them for a tail draw).
//
// Both return exactly what the full Dist would and consume the RNG the same
// way, so callers may mix the three freely without changing a simulated
// byte. The price is a one-call lifetime: a result returned by a model stays
// valid until the next Dist, Top or Sample call on the same model. A draft
// builds into its own buffer, so draft calls never invalidate a target
// result, nor the reverse. Context itself is a small value type carrying
// only the HistoryWindow-sized suffix that conditions the distribution, so
// extending a context allocates nothing. Models are NOT safe for concurrent
// use: give each goroutine its own engine/models, as the parallel experiment
// runner does.
package lm

import (
	"fmt"

	"adaserve/internal/mathutil"
)

// Token is a vocabulary item. Valid tokens are in [0, VocabSize).
type Token int32

// TokenProb pairs a token with its probability under some distribution.
type TokenProb struct {
	Token Token
	Prob  float64
}

// Dist is a truncated next-token distribution: explicit probabilities for a
// small candidate set plus Tail mass smeared uniformly over the rest of the
// vocabulary. Entries are sorted by descending probability.
//
// The Entries of a model-returned Dist live in a buffer owned by that model:
// treat them as read-only, and as valid only until the next Dist, Top or
// Sample call on the same model, which refills the buffer in place. Calls on
// other models (a draft and its target included) leave it alone. Copy what
// must outlive that.
type Dist struct {
	Entries []TokenProb
	// Tail is the probability mass not covered by Entries.
	Tail float64
	// Vocab is the vocabulary size (for tail token sampling).
	Vocab int
}

// Validate checks that the distribution is normalized and sorted.
func (d Dist) Validate() error {
	var s float64
	prev := 1.1
	for _, e := range d.Entries {
		if e.Prob < 0 {
			return fmt.Errorf("lm: negative probability %g", e.Prob)
		}
		if e.Prob > prev+1e-12 {
			return fmt.Errorf("lm: entries not sorted descending")
		}
		prev = e.Prob
		s += e.Prob
	}
	s += d.Tail
	if s < 0.999 || s > 1.001 {
		return fmt.Errorf("lm: distribution sums to %g", s)
	}
	return nil
}

// Prob returns the probability of tok under d: a linear scan of the small
// candidate set, else the token's share of the tail.
func (d Dist) Prob(tok Token) float64 {
	for _, e := range d.Entries {
		if e.Token == tok {
			return e.Prob
		}
	}
	if d.Vocab <= len(d.Entries) {
		return 0
	}
	return d.Tail / float64(d.Vocab-len(d.Entries))
}

// Argmax returns the most likely token.
func (d Dist) Argmax() Token {
	if len(d.Entries) == 0 {
		return 0
	}
	return d.Entries[0].Token
}

// Sample draws a token from d using rng.
func (d Dist) Sample(rng *mathutil.RNG) Token {
	u := rng.Float64()
	var acc float64
	for _, e := range d.Entries {
		acc += e.Prob
		if u < acc {
			return e.Token
		}
	}
	return d.sampleTail(rng)
}

// sampleTail draws uniformly over the NON-candidate tokens: the tail mass
// belongs exclusively to tokens outside the candidate set, so a draw that
// landed in the tail must never return a candidate (returning one would
// double-count its mass on top of its explicit entry).
func (d Dist) sampleTail(rng *mathutil.RNG) Token {
	free := d.Vocab - len(d.Entries)
	if free <= 0 {
		// No non-candidate tokens exist (or the distribution is degenerate):
		// fall back to the least likely candidate.
		if len(d.Entries) > 0 {
			return d.Entries[len(d.Entries)-1].Token
		}
		return 0
	}
	r := Token(rng.Intn(free))
	// The result is the r-th smallest non-candidate v, the least fixpoint of
	// v = r + #(candidates <= v); iterate from r (converges in at most
	// len(Entries)+1 rounds, no sorted order needed).
	v := r
	for {
		cnt := Token(0)
		for _, e := range d.Entries {
			if e.Token <= v {
				cnt++
			}
		}
		if r+cnt == v {
			return v
		}
		v = r + cnt
	}
}

// HistoryWindow is how many trailing tokens condition the next-token
// distribution.
const HistoryWindow = 4

// Context identifies a decoding position: the request's own seed (so two
// requests with identical recent tokens still have independent text) plus
// the trailing HistoryWindow tokens of the generated history (an order-n
// Markov approximation — only the window conditions the distribution, so
// only the window is stored). Context is a small value type: Extend never
// allocates, and contexts compare with ==.
type Context struct {
	ReqSeed uint64
	// win holds the most recent min(n, HistoryWindow) history tokens, oldest
	// first.
	win [HistoryWindow]Token
	// n is the number of valid tokens in win.
	n uint8
}

// NewContext builds a context from a request seed and a full (or partial)
// generated history; only the trailing HistoryWindow tokens are retained.
func NewContext(seed uint64, hist []Token) Context {
	c := Context{ReqSeed: seed}
	start := len(hist) - HistoryWindow
	if start < 0 {
		start = 0
	}
	for _, t := range hist[start:] {
		c.win[c.n] = t
		c.n++
	}
	return c
}

// Extend returns a context with one more history token appended. Pure value
// semantics: the receiver is unchanged and nothing is allocated.
func (c Context) Extend(tok Token) Context {
	if int(c.n) < HistoryWindow {
		c.win[c.n] = tok
		c.n++
		return c
	}
	copy(c.win[:], c.win[1:])
	c.win[HistoryWindow-1] = tok
	return c
}

// Window returns a copy of the retained history window, oldest first.
func (c Context) Window() []Token {
	return append([]Token(nil), c.win[:c.n]...)
}

// WindowLen returns how many history tokens the context retains
// (min(history length, HistoryWindow)).
func (c Context) WindowLen() int { return int(c.n) }

// hash folds the request seed and trailing window into one 64-bit value.
func (c Context) hash(salt uint64) uint64 {
	h := mathutil.Hash2(c.ReqSeed, salt)
	for _, t := range c.win[:c.n] {
		h = mathutil.Hash2(h, uint64(t)+0x1000)
	}
	return h
}

// Model is a synthetic autoregressive language model. Results of Dist, Top
// and Sample share the model's buffer: each is valid until the next of these
// calls on the same model.
type Model interface {
	// Dist returns the next-token distribution for ctx.
	Dist(ctx Context) Dist
	// Top returns Dist(ctx).Entries[:min(k, len)], the k most likely
	// entries, building no lower rank.
	Top(ctx Context, k int) []TokenProb
	// Sample returns Dist(ctx).Sample(rng) and consumes rng exactly as that
	// call would.
	Sample(ctx Context, rng *mathutil.RNG) Token
	// Vocab returns the vocabulary size.
	Vocab() int
	// Name identifies the model in logs and metrics.
	Name() string
}

// SyntheticLM is the target ("large") model.
type SyntheticLM struct {
	name string
	seed uint64
	// vocab is the vocabulary size.
	vocab int
	// branch is the candidate-set size per context.
	branch int
	// weights are the Zipf weights shared by every context (the permutation
	// of which tokens get them is context-dependent).
	weights []float64
	// tail is the mass reserved outside the candidate set.
	tail float64
	// cum holds the running sums of weights, accumulated in rank order as
	// Dist.Sample does, so Sample finds a draw's rank without any tokens.
	cum []float64
	// strictOrder reports that weights are strictly decreasing, which lets
	// DraftLM rebuild mistaken distributions by swapping token positions
	// instead of sorting.
	strictOrder bool
	// mask is vocab-1 when vocab is a power of two (reducing a hash by it
	// equals reducing modulo vocab, without a divide), else 0.
	mask uint64
	// seen is a vocab-bit set that dedups candidate draws; candidates
	// clears the words it set before returning.
	seen []uint64
	// buf is the entry buffer every Dist, Top and Sample call refills.
	buf []TokenProb
}

// NewSyntheticLM constructs a target model.
//
//   - vocab: vocabulary size (e.g. 4096; the serving layer never enumerates it).
//   - branch: candidate tokens per context (e.g. 16).
//   - sharpness: Zipf exponent; higher concentrates mass on the top token.
//     sharpness ≈ 1.6 yields top-1 probability ≈ 0.6, typical of instruct
//     LLMs under greedy-ish sampling.
//   - tail: probability mass outside the candidate set (e.g. 0.02).
func NewSyntheticLM(name string, seed uint64, vocab, branch int, sharpness, tail float64) (*SyntheticLM, error) {
	if vocab < 2 || branch < 1 || branch > vocab {
		return nil, fmt.Errorf("lm: bad vocab/branch %d/%d", vocab, branch)
	}
	if tail < 0 || tail >= 1 {
		return nil, fmt.Errorf("lm: tail %g out of [0,1)", tail)
	}
	w := mathutil.ZipfWeights(branch, sharpness)
	for i := range w {
		w[i] *= 1 - tail
	}
	cum := make([]float64, len(w))
	var acc float64
	for i := range w {
		acc += w[i]
		cum[i] = acc
	}
	strict := true
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			strict = false
			break
		}
	}
	var mask uint64
	if vocab&(vocab-1) == 0 {
		mask = uint64(vocab - 1)
	}
	return &SyntheticLM{
		name: name, seed: seed, vocab: vocab, branch: branch,
		weights: w, cum: cum, tail: tail, strictOrder: strict, mask: mask,
		seen: make([]uint64, (vocab+63)/64),
		buf:  make([]TokenProb, 0, branch),
	}, nil
}

// MustSyntheticLM panics on construction error; for fixed experiment setups.
func MustSyntheticLM(name string, seed uint64, vocab, branch int, sharpness, tail float64) *SyntheticLM {
	m, err := NewSyntheticLM(name, seed, vocab, branch, sharpness, tail)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements Model.
func (m *SyntheticLM) Name() string { return m.name }

// Vocab implements Model.
func (m *SyntheticLM) Vocab() int { return m.vocab }

// Dist implements Model: candidate tokens are chosen by hashing the context;
// Zipf weights are assigned in hash order so the distribution is a
// deterministic function of (model seed, request seed, history window).
// It refills the model's entry buffer and allocates nothing.
func (m *SyntheticLM) Dist(ctx Context) Dist {
	return Dist{Entries: m.Top(ctx, m.branch), Tail: m.tail, Vocab: m.vocab}
}

// Top implements Model by building only the first k candidates, which are
// a prefix of the full candidate list.
func (m *SyntheticLM) Top(ctx Context, k int) []TokenProb {
	m.buf = m.candidates(m.buf, ctx.hash(m.seed), k)
	return m.buf
}

// Sample implements Model. It draws u first, as Dist.Sample does, reads the
// rank u falls in from the cumulative weights, and builds the candidates up
// to that rank only; a tail draw builds them all for sampleTail.
func (m *SyntheticLM) Sample(ctx Context, rng *mathutil.RNG) Token {
	u := rng.Float64()
	h := ctx.hash(m.seed)
	for r, c := range m.cum {
		if u < c {
			m.buf = m.candidates(m.buf, h, r+1)
			return m.buf[r].Token
		}
	}
	m.buf = m.candidates(m.buf, h, m.branch)
	return Dist{Entries: m.buf, Tail: m.tail, Vocab: m.vocab}.sampleTail(rng)
}

// candidates refills dst, reusing its storage, with the first min(n, branch)
// entries of the distribution for context hash h: distinct tokens drawn
// from the hash stream, weighted in draw order. Each draw is deduped only
// against earlier ones, so the result for any n is a prefix of the full
// list.
func (m *SyntheticLM) candidates(dst []TokenProb, h uint64, n int) []TokenProb {
	n = min(n, m.branch)
	dst = dst[:0]
	x := h
	for len(dst) < n {
		x = mathutil.SplitMix64(x)
		var v uint64
		if m.mask != 0 {
			v = x & m.mask
		} else {
			v = x % uint64(m.vocab)
		}
		word, bit := &m.seen[v>>6], uint64(1)<<(v&63)
		if *word&bit != 0 {
			continue
		}
		*word |= bit
		dst = append(dst, TokenProb{Token: Token(v), Prob: m.weights[len(dst)]})
	}
	for _, e := range dst {
		m.seen[e.Token>>6] = 0
	}
	return dst
}

// DraftLM approximates a target model with tunable alignment, mimicking a
// small same-family (or distilled) draft model.
//
// Real drafts agree with their targets on "easy" tokens and are confidently
// wrong on hard ones; uniform smoothing cannot express that (it never
// changes the argmax, making greedy chains accept with probability ~1).
// DraftLM therefore models alignment per context:
//
//   - with probability alpha (hash-determined per context), the draft's
//     distribution equals the target's — its proposals verify with
//     probability ≈ 1;
//   - otherwise the draft is mistaken: its top-ranked token is swapped with
//     a lower-ranked one, so its argmax carries high draft confidence but
//     low target probability (rejected most of the time), while the
//     target's true argmax hides at a lower draft rank — the case where
//     tree speculation recovers and sequence speculation stalls.
//
// alpha = 1 is a perfect draft; alpha = 0 disagrees everywhere.
type DraftLM struct {
	name   string
	target *SyntheticLM
	alpha  float64
	seed   uint64
	// buf is the draft's own entry buffer, refilled by every Dist, Top and
	// Sample call (never the target's, so draft calls leave target results
	// intact).
	buf []TokenProb
}

// NewDraftLM builds a draft for target with the given per-context agreement
// rate alpha in [0, 1]. seed controls which contexts the draft gets wrong.
func NewDraftLM(name string, target *SyntheticLM, alpha float64, seed uint64) (*DraftLM, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("lm: alpha %g out of [0,1]", alpha)
	}
	return &DraftLM{
		name: name, target: target, alpha: alpha, seed: seed,
		buf: make([]TokenProb, 0, target.branch),
	}, nil
}

// MustDraftLM panics on construction error.
func MustDraftLM(name string, target *SyntheticLM, alpha float64, seed uint64) *DraftLM {
	d, err := NewDraftLM(name, target, alpha, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Model.
func (d *DraftLM) Name() string { return d.name }

// Vocab implements Model.
func (d *DraftLM) Vocab() int { return d.target.vocab }

// Alpha returns the draft/target per-context agreement rate.
func (d *DraftLM) Alpha() float64 { return d.alpha }

// Dist implements Model. It builds the target's candidates for ctx straight
// into the draft's own buffer, then rearranges them in place if the draft is
// mistaken at ctx; it never calls the target and allocates nothing.
func (d *DraftLM) Dist(ctx Context) Dist {
	t := d.target
	return Dist{Entries: d.Top(ctx, t.branch), Tail: t.tail, Vocab: t.vocab}
}

// Top implements Model. Where the draft is aligned it builds the target's
// first k candidates. Where it is mistaken, its top token is swapped with
// that of a lower-ranked candidate j (drawn from the draft hash, biased
// toward nearby ranks: distilled drafts are near-misses far more often than
// wildly wrong, which is what makes width-w tree speculation able to recover
// where sequence speculation stalls). With strictly decreasing weights that
// is a swap of token positions 0 and j, so max(k, j+1) candidates suffice;
// tied weights need every candidate re-sorted.
func (d *DraftLM) Top(ctx Context, k int) []TokenProb {
	t := d.target
	k = max(0, min(k, t.branch))
	h, hd := ctx.hash(t.seed), ctx.hash(d.seed)
	if u := float64(hd>>11) / (1 << 53); u < d.alpha || t.branch < 2 {
		d.buf = t.candidates(d.buf, h, k)
		return d.buf
	}
	j := disagreeRank(mathutil.SplitMix64(hd), t.branch-1)
	if t.strictOrder {
		// Swapping the probabilities at ranks 0 and j and re-sorting is
		// exactly a swap of the two tokens' positions (probabilities stay
		// the rank-ordered weights).
		d.buf = t.candidates(d.buf, h, max(k, j+1))
		d.buf[0].Token, d.buf[j].Token = d.buf[j].Token, d.buf[0].Token
		return d.buf[:k]
	}
	d.buf = t.candidates(d.buf, h, t.branch)
	swapResort(d.buf, j)
	return d.buf[:k]
}

// Sample implements Model by sampling the draft's full distribution.
func (d *DraftLM) Sample(ctx Context, rng *mathutil.RNG) Token {
	return d.Dist(ctx).Sample(rng)
}

// swapResort swaps the probabilities at ranks 0 and j of e and re-sorts the
// entries by (probability desc, token asc) in place. Under tied weights,
// equal-probability candidates sit in hash order, so more than ranks 0 and j
// may move. Candidate tokens are distinct, which makes that order total: an
// in-place insertion sort gives the one sorted result without allocating.
func swapResort(e []TokenProb, j int) {
	e[0].Prob, e[j].Prob = e[j].Prob, e[0].Prob
	for i := 1; i < len(e); i++ {
		for k := i; k > 0 && ranksBefore(e[k], e[k-1]); k-- {
			e[k], e[k-1] = e[k-1], e[k]
		}
	}
}

// ranksBefore reports whether a precedes b in a distribution's entry order.
func ranksBefore(a, b TokenProb) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	return a.Token < b.Token
}

// disagreeRank draws the target rank a mistaken draft confuses with the top:
// rank 1 (the runner-up) 55% of the time, rank 2 25%, rank 3 10%, deeper
// ranks the remainder — matching how distilled drafts err.
func disagreeRank(h uint64, maxRank int) int {
	if maxRank < 1 {
		return 1
	}
	r := int(h % 100)
	var j int
	switch {
	case r < 55:
		j = 1
	case r < 80:
		j = 2
	case r < 90:
		j = 3
	default:
		j = 4 + int(mathutil.SplitMix64(h+1)%3)
	}
	if j > maxRank {
		j = maxRank
	}
	return j
}
