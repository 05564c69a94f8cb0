package toktree

import (
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

func beamModels(t *testing.T) (*lm.SyntheticLM, *lm.DraftLM) {
	t.Helper()
	target := lm.MustSyntheticLM("t", 11, 4096, 16, 3.2, 0.02)
	return target, lm.MustDraftLM("d", target, 0.85, 12)
}

func TestBeamSearchShape(t *testing.T) {
	_, draft := beamModels(t)
	for _, c := range []struct{ d, w int }{{1, 1}, {3, 2}, {5, 4}, {8, 1}} {
		br, err := BeamSearch(draft, lm.Context{ReqSeed: 3}, 7, c.d, c.w)
		if err != nil {
			t.Fatal(err)
		}
		tr := br.Tree
		if err := tr.Validate(); err != nil {
			t.Fatalf("d=%d w=%d: %v", c.d, c.w, err)
		}
		if got := tr.Depth(); got != c.d {
			t.Errorf("d=%d w=%d: depth %d", c.d, c.w, got)
		}
		// Level sizes: level 1..d hold at most w nodes; total ≤ 1 + d*w.
		perLevel := make(map[int]int)
		for _, n := range tr.Nodes[1:] {
			perLevel[n.Depth]++
		}
		for lvl := 1; lvl <= c.d; lvl++ {
			if perLevel[lvl] > c.w {
				t.Errorf("d=%d w=%d: level %d has %d nodes", c.d, c.w, lvl, perLevel[lvl])
			}
			if perLevel[lvl] == 0 {
				t.Errorf("d=%d w=%d: level %d empty", c.d, c.w, lvl)
			}
		}
		if tr.Size() > 1+c.d*c.w {
			t.Errorf("d=%d w=%d: size %d exceeds 1+d*w", c.d, c.w, tr.Size())
		}
	}
}

func TestBeamSearchDepthZero(t *testing.T) {
	_, draft := beamModels(t)
	br, err := BeamSearch(draft, lm.Context{ReqSeed: 3}, 7, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if br.Tree.Size() != 1 || br.DraftTokensProcessed != 0 {
		t.Fatal("depth-0 beam should produce a bare root at no cost")
	}
}

func TestBeamSearchRejectsBadParams(t *testing.T) {
	_, draft := beamModels(t)
	if _, err := BeamSearch(draft, lm.Context{}, 0, -1, 2); err == nil {
		t.Error("negative depth accepted")
	}
	if _, err := BeamSearch(draft, lm.Context{}, 0, 2, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestBeamSearchCostAccounting(t *testing.T) {
	_, draft := beamModels(t)
	br, err := BeamSearch(draft, lm.Context{ReqSeed: 5}, 7, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Step 1 expands the root (1 token); steps 2..4 expand ≤3 beam nodes.
	want := 1 + 3*3
	if br.DraftTokensProcessed > want || br.DraftTokensProcessed < 4 {
		t.Fatalf("draft tokens %d outside [4, %d]", br.DraftTokensProcessed, want)
	}
	if br.Steps != 4 {
		t.Fatalf("steps %d, want 4", br.Steps)
	}
}

func TestBeamSearchKeepsHighestPathProbs(t *testing.T) {
	// Every node in the beam tree at level L must have path probability at
	// least as high as any non-expanded alternative at that level would —
	// spot-check: the level-1 nodes are exactly the draft's top-w.
	_, draft := beamModels(t)
	ctx := lm.Context{ReqSeed: 17}
	br, err := BeamSearch(draft, ctx, 7, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	top := draft.Top(ctx, 3)
	var level1 []lm.Token
	for _, n := range br.Tree.Nodes[1:] {
		if n.Depth == 1 {
			level1 = append(level1, n.Token)
		}
	}
	if len(level1) != 3 {
		t.Fatalf("level 1 has %d nodes", len(level1))
	}
	for _, e := range top {
		found := false
		for _, tok := range level1 {
			if tok == e.Token {
				found = true
			}
		}
		if !found {
			t.Fatalf("draft top token %d missing from level 1", e.Token)
		}
	}
}

func TestChainSpeculateIsWidthOne(t *testing.T) {
	_, draft := beamModels(t)
	br, err := ChainSpeculate(draft, lm.Context{ReqSeed: 5}, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if br.Tree.Size() != 7 {
		t.Fatalf("chain size %d, want 7", br.Tree.Size())
	}
	for _, n := range br.Tree.Nodes {
		if len(n.Children) > 1 {
			t.Fatal("chain has branching")
		}
	}
	// The chain follows the draft argmax at each step.
	ctx := lm.Context{ReqSeed: 5}
	cur := 0
	for depth := 0; depth < 6; depth++ {
		want := draft.Dist(ctx).Argmax()
		child := br.Tree.Nodes[cur].Children[0]
		if got := br.Tree.Nodes[child].Token; got != want {
			t.Fatalf("depth %d: chain token %d, draft argmax %d", depth, got, want)
		}
		ctx = ctx.Extend(want)
		cur = child
	}
}

// TestTheorem41 checks the candidate-tree covering property: the optimal
// budget-B draft tree (greedy by true path probability) is a subtree of the
// beam-search candidate tree with width B and the optimal tree's depth.
func TestTheorem41(t *testing.T) {
	target := lm.MustSyntheticLM("t", 23, 4096, 16, 2.4, 0.02)
	draft := lm.MustDraftLM("d", target, 1.0, 24)
	for seed := uint64(0); seed < 20; seed++ {
		ctx := lm.Context{ReqSeed: seed}
		const budget = 8
		// Reference: greedily grow the optimal tree against the draft
		// (known-f oracle), unconstrained by beams.
		type node struct {
			ctx  lm.Context
			path []lm.Token
			f    float64
		}
		selected := []node{{ctx: ctx, f: 1}}
		frontier := []node{}
		expand := func(n node) {
			for _, e := range draft.Top(n.ctx, 16) {
				frontier = append(frontier, node{
					ctx:  n.ctx.Extend(e.Token),
					path: append(append([]lm.Token(nil), n.path...), e.Token),
					f:    n.f * e.Prob,
				})
			}
		}
		expand(selected[0])
		for len(selected) < budget {
			best := -1
			for i := range frontier {
				if best < 0 || frontier[i].f > frontier[best].f {
					best = i
				}
			}
			n := frontier[best]
			frontier = append(frontier[:best], frontier[best+1:]...)
			selected = append(selected, n)
			expand(n)
		}
		maxDepth := 0
		for _, n := range selected {
			if len(n.path) > maxDepth {
				maxDepth = len(n.path)
			}
		}

		// Candidate tree: beam search with width = budget, depth = D_opt.
		br, err := BeamSearch(draft, ctx, 0, maxDepth, budget)
		if err != nil {
			t.Fatal(err)
		}
		// Every optimal node's path must exist in the candidate tree.
		for _, n := range selected[1:] {
			if !containsPath(br.Tree, n.path) {
				t.Fatalf("seed %d: optimal path %v missing from beam(%d, %d) candidate tree",
					seed, n.path, maxDepth, budget)
			}
		}
	}
}

func containsPath(t *Tree, path []lm.Token) bool {
	cur := 0
	for _, tok := range path {
		next := -1
		for _, c := range t.Nodes[cur].Children {
			if t.Nodes[c].Token == tok {
				next = c
				break
			}
		}
		if next < 0 {
			return false
		}
		cur = next
	}
	return true
}

func TestVerifyCommitsAtLeastOneToken(t *testing.T) {
	target, draft := beamModels(t)
	v := lm.NewVerifier(target, draft, lm.RuleSampleMatch, mathutil.NewRNG(9))
	br, err := BeamSearch(draft, lm.Context{ReqSeed: 31}, 7, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sel := NewSelection(br.Tree)
	for i := 0; i < 200; i++ {
		res := Verify(sel, v)
		if res.NumNewTokens() < 1 {
			t.Fatal("verification committed zero tokens")
		}
		if res.TokensVerified != sel.Size() {
			t.Fatalf("verified %d tokens, selection size %d", res.TokensVerified, sel.Size())
		}
	}
}

func TestVerifyAcceptedPathIsTreePath(t *testing.T) {
	target, draft := beamModels(t)
	v := lm.NewVerifier(target, draft, lm.RuleSampleMatch, mathutil.NewRNG(9))
	br, err := BeamSearch(draft, lm.Context{ReqSeed: 33}, 7, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	sel := NewSelection(br.Tree)
	for id := 1; id < br.Tree.Size(); id++ {
		if sel.Has(br.Tree.Nodes[id].Parent) {
			sel.Add(id)
		}
	}
	for i := 0; i < 100; i++ {
		res := Verify(sel, v)
		if len(res.Accepted) != len(res.AcceptedNodeIDs) {
			t.Fatal("accepted tokens/IDs length mismatch")
		}
		// The accepted node IDs must form a root-descending path.
		prev := 0
		for j, id := range res.AcceptedNodeIDs {
			if br.Tree.Nodes[id].Parent != prev {
				t.Fatalf("accepted node %d at position %d is not a child of %d", id, j, prev)
			}
			if br.Tree.Nodes[id].Token != res.Accepted[j] {
				t.Fatal("accepted token mismatch")
			}
			prev = id
		}
	}
}

func TestVerifyGreedyDeterministic(t *testing.T) {
	target, draft := beamModels(t)
	v := lm.NewVerifier(target, draft, lm.RuleGreedy, mathutil.NewRNG(9))
	br, _ := BeamSearch(draft, lm.Context{ReqSeed: 35}, 7, 4, 2)
	sel := NewSelection(br.Tree)
	for id := 1; id < br.Tree.Size(); id++ {
		if sel.Has(br.Tree.Nodes[id].Parent) {
			sel.Add(id)
		}
	}
	a := Verify(sel, v)
	b := Verify(sel, v)
	if a.NumNewTokens() != b.NumNewTokens() || a.Correction != b.Correction {
		t.Fatal("greedy verification should be deterministic")
	}
}
