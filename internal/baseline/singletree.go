package baseline

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/linalg"
)

// PublishRule selects when the single-tree baseline reveals its tree.
type PublishRule uint8

// Publish rules. The paper describes the baseline as "exactly following"
// the Eyal–Sirer attack but states the trigger as "whenever the length of
// the main chain catches up with the depth of the private tree"; the two
// readings differ, so both are implemented.
const (
	// PublishThreatened is the Eyal–Sirer rule: publish everything as soon
	// as the public chain is within one block of the tree depth (an
	// outright win for depth ≥ 2; from depth 1 the public catch-up is a tie
	// and triggers a γ-race). This is the default.
	PublishThreatened PublishRule = iota
	// PublishTie is the literal catch-up reading: publish only when the
	// public chain fully ties the tree depth, always racing with γ.
	PublishTie
)

// SingleTreeParams configures the single-tree selfish mining baseline.
type SingleTreeParams struct {
	// P is the adversary's resource fraction in [0, 1].
	P float64
	// Gamma is the switching probability for tie races in [0, 1].
	Gamma float64
	// MaxDepth is the maximal private tree depth (the paper uses l = 4).
	MaxDepth int
	// MaxWidth is the maximal number of tree nodes per level (the paper
	// uses f = 5).
	MaxWidth int
	// Rule selects the publication trigger (default PublishThreatened).
	Rule PublishRule
}

// Validate checks parameter ranges.
func (p SingleTreeParams) Validate() error {
	if p.P < 0 || p.P > 1 || math.IsNaN(p.P) {
		return fmt.Errorf("baseline: resource fraction P = %v outside [0, 1]", p.P)
	}
	if p.Gamma < 0 || p.Gamma > 1 || math.IsNaN(p.Gamma) {
		return fmt.Errorf("baseline: switching probability Gamma = %v outside [0, 1]", p.Gamma)
	}
	if p.MaxDepth < 1 {
		return fmt.Errorf("baseline: MaxDepth = %d, need >= 1", p.MaxDepth)
	}
	if p.MaxWidth < 1 {
		return fmt.Errorf("baseline: MaxWidth = %d, need >= 1", p.MaxWidth)
	}
	return nil
}

// treeState is a node of the baseline Markov chain: the per-level occupancy
// of the private tree (levels 1..MaxDepth) and the number of public blocks
// mined since the fork point. The strategy is fixed, so there are no
// decisions: the chain transitions by mining outcomes only.
type treeState struct {
	w [maxTreeDepth]uint8
	h uint8
}

// maxTreeDepth bounds the supported MaxDepth so states can be array-keyed.
const maxTreeDepth = 8

// stochasticTol is the row-sum tolerance every evaluated chain must meet.
const stochasticTol = 1e-9

// lawKind names how a transition's probability follows from (p, γ). With
// σ the state's number of mining targets, den = 1 − p + p·σ and the honest
// block probability hp = (1 − p)/den.
type lawKind uint8

const (
	lawMine     lawKind = iota // the adversary extends one of `targets` nodes: targets·p/den
	lawHonest                  // an honest block that starts no race: hp
	lawRaceWin                 // a γ-race the adversary wins: hp·γ
	lawRaceLose                // a γ-race the adversary loses: hp·(1 − γ)
)

// law is one outgoing transition of a state: how its probability follows
// from (p, γ), and the blocks it finalizes for the adversary (ra) and the
// honest miners (rh).
type law struct {
	kind    lawKind
	targets float64 // lawMine only
	ra, rh  float64
}

// depth returns the deepest occupied level of the tree.
func depth(s treeState, l int) int {
	for v := l; v >= 1; v-- {
		if s.w[v-1] > 0 {
			return v
		}
	}
	return 0
}

// succ is one successor found during exploration.
type succ struct {
	state treeState
	law
}

// successors appends the transitions out of s to out and returns them
// with the state's number of mining targets σ. The mining race follows
// the same (p, k)-model as the attack MDP: the adversary mines on every
// tree node (and the fork-point root) that can still accept a child; each
// target wins with probability p/(1−p+p·σ), honest with (1−p)/(1−p+p·σ).
// Both outcomes of a γ-race are always listed; at γ ∈ {0, 1} one of them
// has probability exactly 0.
func successors(s treeState, l, f int, rule PublishRule, out []succ) ([]succ, int) {
	// Targets per level v (0 = fork point root, occupancy 1): each node at
	// level v is a target iff level v+1 has spare width.
	var targets [maxTreeDepth]int // targets[v] = parents at level v that can spawn
	sigma := 0
	for v := 0; v < l; v++ {
		occ := 1
		if v > 0 {
			occ = int(s.w[v-1])
		}
		if int(s.w[v]) < f && occ > 0 {
			targets[v] = occ
			sigma += occ
		}
	}

	// Adversary grows the tree at level v+1.
	for v := 0; v < l; v++ {
		if targets[v] == 0 {
			continue
		}
		ns := s
		ns.w[v]++
		out = append(out, succ{state: ns, law: law{kind: lawMine, targets: float64(targets[v])}})
	}

	// Honest miners extend the public chain.
	d := depth(s, l)
	newH := int(s.h) + 1
	switch {
	case d == 0:
		// Nothing withheld: the honest block is final; re-fork at the new tip.
		out = append(out, succ{law: law{kind: lawHonest, rh: float64(newH)}})
	case rule == PublishThreatened && d >= 2 && newH == d-1:
		// Eyal–Sirer: the lead shrank to one; publish everything and win
		// outright (the tree's longest path exceeds the public chain).
		out = append(out, succ{law: law{kind: lawHonest, ra: float64(d)}})
	case newH == d:
		// The public chain fully caught up: publish and race.
		out = append(out,
			succ{law: law{kind: lawRaceWin, ra: float64(d)}},
			succ{law: law{kind: lawRaceLose, rh: float64(newH)}})
	default:
		// Public chain still behind: keep withholding.
		ns := s
		ns.h++
		out = append(out, succ{state: ns, law: law{kind: lawHonest}})
	}
	return out, sigma
}

// CompiledSingleTree is the single-tree chain of one (MaxDepth, MaxWidth,
// Rule) shape, explored once. Its reachable states, transition pattern
// and per-transition rewards do not depend on (p, γ) — only the
// probabilities do — so one compiled chain serves every point of a sweep.
// It is read-only and safe for concurrent use, with one
// SingleTreeScratch per goroutine.
type CompiledSingleTree struct {
	maxDepth, maxWidth int
	rule               PublishRule

	states []treeState
	sigma  []float64 // mining targets per state
	lawPtr []int32   // state i's laws are laws[lawPtr[i]:lawPtr[i+1]], in successors order
	laws   []law
	entry  []int64 // laws[k]'s probability lands in the transposed chain's entry entry[k]
	// The transposed transition pattern: row c lists the states with a
	// transition into c, in ascending order.
	tRowPtr []int64
	tColIdx []int32
}

// CompileSingleTree explores the reachable chain of one baseline shape.
func CompileSingleTree(maxDepth, maxWidth int, rule PublishRule) (*CompiledSingleTree, error) {
	if err := (SingleTreeParams{MaxDepth: maxDepth, MaxWidth: maxWidth, Rule: rule}).Validate(); err != nil {
		return nil, err
	}
	if maxDepth > maxTreeDepth {
		return nil, fmt.Errorf("baseline: MaxDepth %d exceeds supported maximum %d", maxDepth, maxTreeDepth)
	}
	c := &CompiledSingleTree{maxDepth: maxDepth, maxWidth: maxWidth, rule: rule, lawPtr: []int32{0}}
	index := map[treeState]int{{}: 0}
	c.states = append(c.states, treeState{})
	var out []succ
	var pattern []linalg.Entry // one per law, in the same order
	for i := 0; i < len(c.states); i++ {
		var sigma int
		out, sigma = successors(c.states[i], maxDepth, maxWidth, rule, out[:0])
		c.sigma = append(c.sigma, float64(sigma))
		for _, sc := range out {
			j, ok := index[sc.state]
			if !ok {
				j = len(c.states)
				index[sc.state] = j
				c.states = append(c.states, sc.state)
			}
			pattern = append(pattern, linalg.Entry{Row: i, Col: j})
			c.laws = append(c.laws, sc.law)
		}
		c.lawPtr = append(c.lawPtr, int32(len(c.laws)))
	}
	// NewCSR merges a state's two race outcomes (both lead back to the
	// fork point) into one entry; Transpose lists each column's sources in
	// ascending row order, so a law finds its entry by binary search.
	n := len(c.states)
	chain, err := linalg.NewCSR(n, n, pattern)
	if err != nil {
		return nil, fmt.Errorf("baseline: building single-tree chain: %w", err)
	}
	chainT := chain.Transpose()
	c.tRowPtr, c.tColIdx = chainT.RowPtr, chainT.ColIdx
	c.entry = make([]int64, len(pattern))
	for k, e := range pattern {
		lo, hi := chainT.RowPtr[e.Col], chainT.RowPtr[e.Col+1]
		pos, _ := slices.BinarySearch(chainT.ColIdx[lo:hi], int32(e.Row))
		c.entry[k] = lo + int64(pos)
	}
	return c, nil
}

// NumStates returns the size of the explored chain.
func (c *CompiledSingleTree) NumStates() int { return len(c.states) }

// SingleTreeScratch is one goroutine's working memory for evaluating
// points of one CompiledSingleTree.
type SingleTreeScratch struct {
	chainT           linalg.CSR // the compiled transposed pattern with one point's probabilities
	rewardA, rewardH []float64
	pi, next         []float64
}

// NewScratch allocates evaluation buffers sized for c.
func (c *CompiledSingleTree) NewScratch() *SingleTreeScratch {
	n := len(c.states)
	return &SingleTreeScratch{
		chainT: linalg.CSR{
			Rows: n, Cols: n,
			RowPtr: c.tRowPtr, ColIdx: c.tColIdx,
			Val: make([]float64, len(c.tColIdx)),
		},
		rewardA: make([]float64, n),
		rewardH: make([]float64, n),
		pi:      make([]float64, n),
		next:    make([]float64, n),
	}
}

// fill writes the chain's transition probabilities at (p, γ) into sc's
// transposed chain, with each state's expected one-step rewards, and
// checks that every row is stochastic. A state's probabilities and
// rewards accumulate in successors order and a merged race entry sums
// its two outcomes (one of them an exact 0 at γ ∈ {0, 1}), so the values
// are bitwise those of a chain built for (p, γ) directly.
func (c *CompiledSingleTree) fill(p, gamma float64, sc *SingleTreeScratch) error {
	val := sc.chainT.Val
	clear(val)
	for i, sigma := range c.sigma {
		den := 1 - p + p*sigma
		hp := (1 - p) / den
		var ra, rh, rowSum float64
		for k := c.lawPtr[i]; k < c.lawPtr[i+1]; k++ {
			lw := &c.laws[k]
			var pr float64
			switch lw.kind {
			case lawMine:
				pr = lw.targets * p / den
			case lawHonest:
				pr = hp
			case lawRaceWin:
				pr = hp * gamma
			case lawRaceLose:
				pr = hp * (1 - gamma)
			}
			if pr < -stochasticTol {
				return fmt.Errorf("baseline: single-tree chain is not stochastic")
			}
			val[c.entry[k]] += pr
			rowSum += pr
			ra += pr * lw.ra
			rh += pr * lw.rh
		}
		if math.Abs(rowSum-1) > stochasticTol {
			return fmt.Errorf("baseline: single-tree chain is not stochastic")
		}
		sc.rewardA[i], sc.rewardH[i] = ra, rh
	}
	return nil
}

// ERRev computes the exact expected relative revenue of the baseline at
// (p, γ) by stationary analysis — gain(r_A) / (gain(r_A) + gain(r_H)) —
// working in sc, which must come from c.NewScratch. It allocates nothing.
func (c *CompiledSingleTree) ERRev(p, gamma float64, sc *SingleTreeScratch) (float64, error) {
	params := SingleTreeParams{P: p, Gamma: gamma, MaxDepth: c.maxDepth, MaxWidth: c.maxWidth, Rule: c.rule}
	if err := params.Validate(); err != nil {
		return 0, err
	}
	if p == 0 {
		return 0, nil
	}
	if p == 1 {
		// Honest miners never win a race; the adversary owns the chain.
		return 1, nil
	}
	if err := c.fill(p, gamma, sc); err != nil {
		return 0, err
	}
	pi, err := linalg.StationaryTransposed(&sc.chainT, sc.pi, sc.next, linalg.StationaryOptions{})
	if err != nil {
		return 0, fmt.Errorf("baseline: single-tree stationary distribution: %w", err)
	}
	var gA, gH float64
	for i := range pi {
		gA += pi[i] * sc.rewardA[i]
		gH += pi[i] * sc.rewardH[i]
	}
	if gA+gH <= 0 {
		return 0, fmt.Errorf("baseline: degenerate single-tree chain: total block rate %v", gA+gH)
	}
	return gA / (gA + gH), nil
}

// SingleTree is the exact Markov-chain evaluation of the baseline at one
// (p, γ): a compiled chain plus the point it evaluates.
type SingleTree struct {
	params SingleTreeParams
	*CompiledSingleTree
}

// NewSingleTree compiles the reachable chain for the given parameters.
func NewSingleTree(params SingleTreeParams) (*SingleTree, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	c, err := CompileSingleTree(params.MaxDepth, params.MaxWidth, params.Rule)
	if err != nil {
		return nil, err
	}
	return &SingleTree{params: params, CompiledSingleTree: c}, nil
}

// ERRev computes the exact expected relative revenue of the baseline by
// stationary analysis: gain(r_A) / (gain(r_A) + gain(r_H)).
func (st *SingleTree) ERRev() (float64, error) {
	return st.CompiledSingleTree.ERRev(st.params.P, st.params.Gamma, st.NewScratch())
}

// SingleTreeERRev is a convenience wrapper: compile and evaluate one
// point. Callers evaluating many points of one shape should compile it
// once with CompileSingleTree and reuse one scratch per goroutine.
func SingleTreeERRev(params SingleTreeParams) (float64, error) {
	st, err := NewSingleTree(params)
	if err != nil {
		return 0, err
	}
	return st.ERRev()
}
