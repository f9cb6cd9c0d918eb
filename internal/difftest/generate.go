package difftest

import (
	"math/rand"
	"sort"
	"sync"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/testbench"
	"rteaal/internal/wire"
)

// Feature is one coverage dimension a generated design exercised: an
// operation kind after optimisation ("op:mul"), a dynamic arithmetic edge
// actually hit under the case's stimulus ("dyn:div-by-zero"), a packed
// bit-layout property ("layout:..."), or a partition-cut pattern
// ("partition:..."). The fuzzer accumulates features across cases and
// biases profile selection toward the unexercised ones.
type Feature string

func opFeature(op wire.Op) Feature { return Feature("op:" + op.String()) }

const (
	// FeatDivZero: a div/rem node whose divisor evaluated to zero.
	FeatDivZero Feature = "dyn:div-by-zero"
	// FeatShiftOverWidth: a shift amount >= the operand width.
	FeatShiftOverWidth Feature = "dyn:shift-ge-width"
	// FeatShiftOver64: a shift amount >= 64, the uint64 saturation edge.
	FeatShiftOver64 Feature = "dyn:shift-ge-64"
	// FeatWidth64: a full-64-bit node (mask arithmetic wraps, not truncates).
	FeatWidth64 Feature = "struct:width-64"
	// FeatPackedSlots: the packed batch layout bit-packs some slots.
	FeatPackedSlots Feature = "layout:packed-slots"
	// FeatPackedCrossing: an op crosses the packed/word boundary — a 1-bit
	// result over wide operands or a wide result over 1-bit operands.
	FeatPackedCrossing Feature = "layout:packed-crossing"
	// FeatPartitionCut: the n=2 RepCut plan has register edges crossing
	// partitions.
	FeatPartitionCut Feature = "partition:cut-edges"
	// FeatPartitionReplication: the n=2 RepCut plan replicates shared logic.
	FeatPartitionReplication Feature = "partition:replication"
	// FeatCommitCycle: registers load each other's Q in a cycle, so no
	// order of one-at-a-time register updates is the simultaneous one
	// without a temporary.
	FeatCommitCycle Feature = "commit:cycle"
)

// Features executes the case as Execute does with no chunks and returns,
// beside the first divergence, the coverage features the case exercises.
// Static features are read off what the matrix compiled: the optimised
// graph (what the engines actually execute), its tensor and the P = 2 RepCut
// plan. Dynamic features replay lane-0 stimulus through the reference
// interpreter, because a div node whose divisor merely *could* be zero
// exercises nothing. An error means a shape failed to build or run.
func Features(c *Case) ([]Feature, *Divergence, error) {
	m, err := NewMatrix(c.Graph, c.Lanes, testbench.Random(c.StimSeed))
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()
	d, err := m.execute(c, nil)
	if err != nil {
		return nil, nil, err
	}
	feats, err := m.features(c)
	return feats, d, err
}

// features extracts the coverage features of c, the case m was built for.
func (m *Matrix) features(c *Case) ([]Feature, error) {
	set := make(map[Feature]bool)

	opt := m.opt
	for id := range opt.Nodes {
		n := &opt.Nodes[id]
		if n.Width == 64 {
			set[FeatWidth64] = true
		}
		if n.Kind != dfg.KindOp {
			continue
		}
		set[opFeature(n.Op)] = true
		oneBit := n.Width == 1
		for _, a := range n.Args {
			if (opt.Nodes[a].Width == 1) != oneBit {
				set[FeatPackedCrossing] = true
				break
			}
		}
	}

	for _, one := range kernel.OneBitSlots(m.ten) {
		if one {
			set[FeatPackedSlots] = true
			break
		}
	}
	if commitCycle(m.ten.RegSlots) {
		set[FeatCommitCycle] = true
	}
	st := m.plan.Stats()
	if st.CutSize > 0 {
		set[FeatPartitionCut] = true
	}
	if st.ReplicatedOps > st.TotalOps {
		set[FeatPartitionReplication] = true
	}

	// Dynamic edges, on the original graph so every generated node counts.
	it, err := dfg.NewInterp(c.Graph)
	if err != nil {
		return nil, err
	}
	stim := testbench.Random(c.StimSeed)
	for cyc := int64(0); cyc < int64(c.Cycles); cyc++ {
		for i := range c.Graph.Inputs {
			it.PokeInput(i, stim.Value(cyc, 0, i))
		}
		it.Eval()
		for id := range c.Graph.Nodes {
			n := &c.Graph.Nodes[id]
			if n.Kind != dfg.KindOp {
				continue
			}
			switch n.Op {
			case wire.Div, wire.Rem:
				if it.Peek(n.Args[1]) == 0 {
					set[FeatDivZero] = true
				}
			case wire.Shl, wire.Shr:
				amt := it.Peek(n.Args[1])
				if amt >= uint64(c.Graph.Nodes[n.Args[0]].Width) {
					set[FeatShiftOverWidth] = true
				}
				if amt >= 64 {
					set[FeatShiftOver64] = true
				}
			}
		}
		it.Step()
	}

	feats := make([]Feature, 0, len(set))
	for f := range set {
		feats = append(feats, f)
	}
	sort.Slice(feats, func(i, j int) bool { return feats[i] < feats[j] })
	return feats, nil
}

// commitCycle reports whether following Next → the register whose Q that is
// ever returns to a register other than by its own Q.
func commitCycle(regs []dfg.RegSlot) bool {
	byQ := make(map[int32]int, len(regs))
	for i, r := range regs {
		byQ[r.Q] = i
	}
	for i := range regs {
		k := i
		for steps := 0; steps <= len(regs); steps++ {
			next, ok := byQ[regs[k].Next]
			if !ok || next == k {
				break
			}
			if k = next; k == i {
				return true
			}
		}
	}
	return false
}

// Coverage accumulates features across cases. Safe for concurrent use by
// fuzzer workers.
type Coverage struct {
	mu   sync.Mutex
	seen map[Feature]int
}

// NewCoverage returns an empty accumulator.
func NewCoverage() *Coverage { return &Coverage{seen: make(map[Feature]int)} }

// Add records the features one case exercised and returns how many were
// new to the accumulated set.
func (c *Coverage) Add(feats []Feature) (fresh int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range feats {
		if c.seen[f] == 0 {
			fresh++
		}
		c.seen[f]++
	}
	return fresh
}

// Covered reports whether the feature has been exercised at least once.
func (c *Coverage) Covered(f Feature) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen[f] > 0
}

// Size is the number of distinct features exercised so far.
func (c *Coverage) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

// Strings lists the covered features, sorted, for reporting.
func (c *Coverage) Strings() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.seen))
	for f := range c.seen {
		out = append(out, string(f))
	}
	sort.Strings(out)
	return out
}

// Profile is one generation regime: a parameter sampler plus the coverage
// features the regime is designed to reach. PickProfile prefers profiles
// with uncovered targets. A profile with a Graph is one fixed design, which
// its seeds vary the stimulus of.
type Profile struct {
	Name    string
	Targets []Feature
	Params  func(rng *rand.Rand) dfg.RandomParams
	Graph   func() *dfg.Graph
}

// Profiles returns the generation regimes, broadest first. The baseline
// regime mirrors the historical differential_test.go distribution; the
// rest push the axes it never reached: full-64-bit widths, sharp
// shift/cat edges, dynamically-zero divisors, deep mux chains,
// all-1-bit control designs that maximise bit packing, and the fixed design
// whose register update is cycles, chains and fan-out of Qs.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "baseline",
			Targets: []Feature{
				opFeature(wire.Add), opFeature(wire.Mul), opFeature(wire.Mux),
				FeatPartitionCut,
			},
			Params: func(rng *rand.Rand) dfg.RandomParams {
				return dfg.RandomParams{
					Inputs: 2 + rng.Intn(4), Regs: 4 + rng.Intn(6),
					Ops: 40 + rng.Intn(80), Consts: 3 + rng.Intn(4),
					MaxWidth: 8 + rng.Intn(40),
					MuxBias:  0.15 + rng.Float64()*0.25,
				}
			},
		},
		{
			Name: "wide64",
			Targets: []Feature{
				FeatWidth64, opFeature(wire.Cat), FeatPartitionReplication,
			},
			Params: func(rng *rand.Rand) dfg.RandomParams {
				return dfg.RandomParams{
					Inputs: 3 + rng.Intn(3), Regs: 5 + rng.Intn(6),
					Ops: 60 + rng.Intn(80), Consts: 4 + rng.Intn(4),
					MaxWidth: 64,
					MuxBias:  0.10 + rng.Float64()*0.15,
				}
			},
		},
		{
			Name: "shiftcat",
			Targets: []Feature{
				FeatShiftOverWidth, FeatShiftOver64,
				opFeature(wire.Shl), opFeature(wire.Shr),
				opFeature(wire.Bits),
			},
			Params: func(rng *rand.Rand) dfg.RandomParams {
				return dfg.RandomParams{
					Inputs: 2 + rng.Intn(4), Regs: 4 + rng.Intn(5),
					Ops: 50 + rng.Intn(70), Consts: 3 + rng.Intn(4),
					MaxWidth:  64,
					MuxBias:   0.08 + rng.Float64()*0.10,
					ShiftBias: 0.20 + rng.Float64()*0.15,
				}
			},
		},
		{
			Name: "sharpdiv",
			Targets: []Feature{
				FeatDivZero, opFeature(wire.Div), opFeature(wire.Rem),
			},
			Params: func(rng *rand.Rand) dfg.RandomParams {
				return dfg.RandomParams{
					Inputs: 2 + rng.Intn(4), Regs: 4 + rng.Intn(5),
					Ops: 50 + rng.Intn(70), Consts: 3 + rng.Intn(4),
					MaxWidth:    32 + rng.Intn(33),
					MuxBias:     0.08 + rng.Float64()*0.10,
					ShiftBias:   0.05,
					DivZeroBias: 0.20 + rng.Float64()*0.15,
				}
			},
		},
		{
			Name: "muxchain",
			Targets: []Feature{
				opFeature(wire.MuxChain), FeatPackedCrossing,
			},
			Params: func(rng *rand.Rand) dfg.RandomParams {
				return dfg.RandomParams{
					Inputs: 3 + rng.Intn(3), Regs: 4 + rng.Intn(5),
					Ops: 60 + rng.Intn(80), Consts: 3 + rng.Intn(4),
					MaxWidth: 8 + rng.Intn(25),
					MuxBias:  0.50 + rng.Float64()*0.25,
				}
			},
		},
		{
			Name: "onebit",
			Targets: []Feature{
				FeatPackedSlots, FeatPackedCrossing,
				opFeature(wire.AndR), opFeature(wire.OrR), opFeature(wire.XorR),
			},
			Params: func(rng *rand.Rand) dfg.RandomParams {
				return dfg.RandomParams{
					Inputs: 3 + rng.Intn(4), Regs: 6 + rng.Intn(6),
					Ops: 60 + rng.Intn(80), Consts: 3 + rng.Intn(4),
					MaxWidth: 2 + rng.Intn(5),
					MuxBias:  0.20 + rng.Float64()*0.20,
				}
			},
		},
		{
			Name:    "commitmoves",
			Targets: []Feature{FeatCommitCycle},
			Graph:   dfg.CommitMovesGraph,
		},
	}
}

// PickProfile chooses the regime with the most uncovered targets; ties are
// broken pseudo-randomly so the fuzzer keeps rotating once everything is
// covered.
func PickProfile(cov *Coverage, rng *rand.Rand) Profile {
	profs := Profiles()
	best, bestScore := 0, -1
	for i, p := range profs {
		score := 0
		for _, f := range p.Targets {
			if cov == nil || !cov.Covered(f) {
				score++
			}
		}
		// Small jitter keeps fully-covered regimes in rotation.
		if score == 0 {
			score = -rng.Intn(len(profs))
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return profs[best]
}

// NewCase generates one differential case from a profile. The case is a
// pure function of (seed, profile name, cycles, lanes).
func NewCase(seed int64, prof Profile, cycles, lanes int) *Case {
	if prof.Graph != nil {
		return &Case{Graph: prof.Graph(), Cycles: cycles, Lanes: lanes, StimSeed: seed*31 + 7}
	}
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	params := prof.Params(rng)
	g := dfg.RandomGraph(rand.New(rand.NewSource(seed)), params)
	return &Case{Graph: g, Cycles: cycles, Lanes: lanes, StimSeed: seed*31 + 7}
}
