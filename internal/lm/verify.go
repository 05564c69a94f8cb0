package lm

import (
	"fmt"
	"sort"

	"adaserve/internal/mathutil"
)

// VerifyRule selects the acceptance criterion used during verification.
type VerifyRule int

const (
	// RuleSampleMatch is the default: at each tree position the target
	// samples its token y ~ p and accepts the branch whose token equals y
	// (the correction token is y itself when no branch matches). The output
	// sequence is therefore always distributed exactly as the target's
	// sampling — lossless by construction — and the acceptance probability
	// of a branch is exactly p(branch), so the draft's path products
	// (Eq. 7) are calibrated estimates of the paper's f(v). This matches
	// the paper's formulation, where f(v) is "the probability in which the
	// LLM accepts the path".
	RuleSampleMatch VerifyRule = iota
	// RuleGreedy accepts a branch iff it equals the target argmax; the
	// correction token is the argmax. Deterministic; used in ablations.
	RuleGreedy
	// RuleRejection is multi-branch rejection sampling (SpecInfer-style):
	// draft token x is accepted with probability min(1, p(x)/q(x)) against
	// the running residual of the target distribution; if every branch is
	// rejected the correction token is drawn from the final residual.
	// Provided for ablations: with top-k (rather than sampled) drafting it
	// over-accepts high-rank tokens relative to the f(v) estimates.
	RuleRejection
)

// String implements fmt.Stringer.
func (r VerifyRule) String() string {
	switch r {
	case RuleSampleMatch:
		return "sample-match"
	case RuleGreedy:
		return "greedy"
	case RuleRejection:
		return "rejection"
	default:
		return fmt.Sprintf("VerifyRule(%d)", int(r))
	}
}

// Verifier applies the target model's acceptance rule at one tree position.
// It is the only component that consumes target-model distributions during
// decoding, mirroring how verification is the only point a real system
// queries the LLM.
type Verifier struct {
	Target Model
	Draft  Model
	Rule   VerifyRule
	RNG    *mathutil.RNG
}

// NewVerifier builds a verifier; rng drives stochastic acceptance and must
// be dedicated to this verifier for reproducibility.
func NewVerifier(target, draft Model, rule VerifyRule, rng *mathutil.RNG) *Verifier {
	return &Verifier{Target: target, Draft: draft, Rule: rule, RNG: rng}
}

// Branch is one candidate child during verification, in draft-tree order.
type Branch struct {
	Token Token
}

// AcceptAmong decides which (if any) of the candidate branches the target
// accepts at context ctx.
//
// It returns the index of the accepted branch, or -1 and a correction token
// drawn per the active rule when all branches are rejected. The branch order
// matters for the stochastic rule (earlier branches get first claim on the
// target mass), so callers should order branches by descending draft
// probability, as AdaServe's selection phases do.
func (v *Verifier) AcceptAmong(ctx Context, branches []Branch) (int, Token) {
	switch v.Rule {
	case RuleGreedy:
		top := Dist{Entries: v.Target.Top(ctx, 1)}.Argmax()
		for i, b := range branches {
			if b.Token == top {
				return i, 0
			}
		}
		return -1, top
	case RuleSampleMatch:
		y := v.Target.Sample(ctx, v.RNG)
		for i, b := range branches {
			if b.Token == y {
				return i, 0
			}
		}
		return -1, y
	case RuleRejection:
		return v.acceptRejection(ctx, v.Target.Dist(ctx), branches)
	default:
		panic(fmt.Sprintf("lm: unknown verify rule %d", int(v.Rule)))
	}
}

// acceptRejection runs multi-round rejection sampling across the branches.
func (v *Verifier) acceptRejection(ctx Context, p Dist, branches []Branch) (int, Token) {
	q := v.Draft.Dist(ctx)
	// residual starts as the target distribution over the union support.
	res := newResidual(p)
	for i, b := range branches {
		qx := q.Prob(b.Token)
		px := res.prob(b.Token, p)
		var acceptProb float64
		if qx <= 0 {
			// The draft claims zero mass yet proposed the token (can happen
			// for tail tokens); accept with the target's residual mass.
			acceptProb = px
		} else {
			acceptProb = px / qx
			if acceptProb > 1 {
				acceptProb = 1
			}
		}
		if v.RNG.Float64() < acceptProb {
			return i, 0
		}
		res.subtract(b.Token, q, p)
	}
	return -1, res.sample(v.RNG, p)
}

// residual tracks the adjusted target distribution max(p − Σq, 0),
// renormalized lazily, over the union of explicit supports.
type residual struct {
	probs map[Token]float64
	tail  float64
	total float64
}

func newResidual(p Dist) *residual {
	r := &residual{probs: make(map[Token]float64, len(p.Entries)), tail: p.Tail}
	for _, e := range p.Entries {
		r.probs[e.Token] = e.Prob
	}
	r.total = mathutilSumMap(r.probs) + r.tail
	return r
}

func (r *residual) prob(tok Token, p Dist) float64 {
	if r.total <= 0 {
		return 0
	}
	pr, ok := r.probs[tok]
	if !ok {
		// Token only in tail region; approximate its residual share.
		if p.Vocab > len(r.probs) {
			pr = r.tail / float64(p.Vocab-len(r.probs))
		}
	}
	return pr / r.total
}

// subtract removes the draft distribution's mass at tok (standard
// speculative-sampling residual update, applied pointwise at the rejected
// token: res(x) ← max(res(x) − q(x), 0)).
func (r *residual) subtract(tok Token, q, p Dist) {
	qx := q.Prob(tok)
	cur, ok := r.probs[tok]
	if !ok {
		cur = 0
		if p.Vocab > len(r.probs) {
			cur = r.tail / float64(p.Vocab-len(r.probs))
		}
	}
	next := cur - qx
	if next < 0 {
		next = 0
	}
	r.probs[tok] = next
	r.total = mathutilSumMap(r.probs) + r.tail
}

// sample draws from the normalized residual.
func (r *residual) sample(rng *mathutil.RNG, p Dist) Token {
	if r.total <= 0 {
		return p.Argmax()
	}
	toks := make([]Token, 0, len(r.probs))
	for t := range r.probs {
		toks = append(toks, t)
	}
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	u := rng.Float64() * r.total
	var acc float64
	for _, t := range toks {
		acc += r.probs[t]
		if u < acc {
			return t
		}
	}
	// Tail region.
	if p.Vocab > 0 {
		return Token(rng.Intn(p.Vocab))
	}
	return p.Argmax()
}

func mathutilSumMap(m map[Token]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
