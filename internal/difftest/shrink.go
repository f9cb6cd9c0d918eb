package difftest

import (
	"fmt"

	"rteaal/internal/dfg"
)

// ShrinkStats reports what the shrinker did.
type ShrinkStats struct {
	Trials   int // candidate cases executed
	Accepted int // mutations that preserved the divergence
	// NodesBefore/NodesAfter bracket the graph size.
	NodesBefore, NodesAfter   int
	CyclesBefore, CyclesAfter int
	LanesBefore, LanesAfter   int
}

func (s ShrinkStats) String() string {
	return fmt.Sprintf("shrink: %d trials, %d accepted; nodes %d→%d, cycles %d→%d, lanes %d→%d",
		s.Trials, s.Accepted, s.NodesBefore, s.NodesAfter,
		s.CyclesBefore, s.CyclesAfter, s.LanesBefore, s.LanesAfter)
}

// stillDiverges executes a candidate and reports whether any divergence
// (not necessarily the original one) survives. Build or step errors reject
// the candidate: the shrinker only keeps mutations that leave a working,
// diverging design.
func stillDiverges(c *Case) (*Divergence, bool) {
	if err := c.Graph.Validate(); err != nil {
		return nil, false
	}
	d, err := c.Execute()
	if err != nil || d == nil {
		return nil, false
	}
	return d, true
}

// Shrink greedily minimises a diverging case: cycles are cut to the
// divergence point, lanes to one, outputs dropped, registers frozen to
// their initial values, operation nodes and inputs replaced by constant
// zeros — each mutation re-verified by re-running the full engine matrix,
// and the whole schedule repeated to a fixpoint. Returns the minimal case,
// its divergence, and trial statistics. The input case is not modified.
func Shrink(c *Case) (*Case, *Divergence, ShrinkStats, error) {
	stats := ShrinkStats{
		NodesBefore: len(c.Graph.Nodes), CyclesBefore: c.Cycles, LanesBefore: c.Lanes,
	}
	cur := &Case{Graph: c.Graph.Clone(), Cycles: c.Cycles, Lanes: c.Lanes, StimSeed: c.StimSeed}
	stats.Trials++
	div, ok := stillDiverges(cur)
	if !ok {
		return nil, nil, stats, fmt.Errorf("difftest: Shrink: case does not diverge")
	}

	// try runs one candidate; on success it becomes the current case.
	try := func(cand *Case) bool {
		stats.Trials++
		d, ok := stillDiverges(cand)
		if !ok {
			return false
		}
		stats.Accepted++
		cur, div = cand, d
		return true
	}

	// Cycle minimisation: the divergence cycle is a completed-cycle index,
	// so cycle+1 total cycles always re-trigger it; verify anyway and keep
	// halving toward 1.
	for {
		want := int(div.Cycle) + 1
		if want >= cur.Cycles {
			break
		}
		if !try(&Case{Graph: cur.Graph, Cycles: want, Lanes: cur.Lanes, StimSeed: cur.StimSeed}) {
			break
		}
	}

	// Lane minimisation.
	if cur.Lanes > 1 {
		try(&Case{Graph: cur.Graph, Cycles: cur.Cycles, Lanes: 1, StimSeed: cur.StimSeed})
	}

	// Structural passes to a fixpoint: drop outputs, freeze registers,
	// zero operation nodes, constant-fold inputs. Each accepted pass ends
	// with dead-code elimination so dead cones disappear from the node count.
	for pass := 0; pass < 8; pass++ {
		accepted := 0

		// Drop outputs (from the back, so indices stay stable).
		for i := len(cur.Graph.Outputs) - 1; i >= 0; i-- {
			g := cur.Graph.Clone()
			g.Outputs = append(g.Outputs[:i], g.Outputs[i+1:]...)
			if try(&Case{Graph: g, Cycles: cur.Cycles, Lanes: cur.Lanes, StimSeed: cur.StimSeed}) {
				accepted++
			}
		}

		// Freeze registers: the Q node becomes a constant at the initial
		// value and the register (with its next-state cone) is removed.
		for i := len(cur.Graph.Regs) - 1; i >= 0; i-- {
			g := cur.Graph.Clone()
			r := g.Regs[i]
			n := &g.Nodes[r.Node]
			n.Kind, n.Val, n.Args = dfg.KindConst, r.Init&n.Mask(), nil
			g.Regs = append(g.Regs[:i], g.Regs[i+1:]...)
			if try(&Case{Graph: g, Cycles: cur.Cycles, Lanes: cur.Lanes, StimSeed: cur.StimSeed}) {
				accepted++
			}
		}

		// Zero operation nodes: highest id first, so consumers shrink
		// before their operands.
		for id := len(cur.Graph.Nodes) - 1; id >= 0; id-- {
			if cur.Graph.Nodes[id].Kind != dfg.KindOp {
				continue
			}
			g := cur.Graph.Clone()
			n := &g.Nodes[id]
			n.Kind, n.Val, n.Args = dfg.KindConst, 0, nil
			if try(&Case{Graph: g, Cycles: cur.Cycles, Lanes: cur.Lanes, StimSeed: cur.StimSeed}) {
				accepted++
			}
		}

		// Constant-fold primary inputs to zero.
		for i := len(cur.Graph.Inputs) - 1; i >= 0; i-- {
			g := cur.Graph.Clone()
			p := g.Inputs[i]
			n := &g.Nodes[p.Node]
			n.Kind, n.Val, n.Args = dfg.KindConst, 0, nil
			g.Inputs = append(g.Inputs[:i], g.Inputs[i+1:]...)
			if try(&Case{Graph: g, Cycles: cur.Cycles, Lanes: cur.Lanes, StimSeed: cur.StimSeed}) {
				accepted++
			}
		}

		if accepted == 0 {
			break
		}
		if g, err := dfg.Optimize(cur.Graph, dfg.OptOptions{DCE: true}); err == nil {
			cand := &Case{Graph: g, Cycles: cur.Cycles, Lanes: cur.Lanes, StimSeed: cur.StimSeed}
			stats.Trials++
			if d, ok := stillDiverges(cand); ok {
				cur, div = cand, d
			}
		}
	}

	stats.NodesAfter = len(cur.Graph.Nodes)
	stats.CyclesAfter = cur.Cycles
	stats.LanesAfter = cur.Lanes
	return cur, div, stats, nil
}
