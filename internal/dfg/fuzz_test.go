package dfg

import (
	"testing"

	"rteaal/internal/wire"
)

// decodeGraph interprets a byte stream as graph-construction instructions.
// The decoder deliberately produces malformed graphs — wrong arities,
// out-of-range widths, disconnected registers, (via the patch phase)
// combinational cycles, and (via the repoint phase) input ports and
// register entries naming a node out of range, of another kind, or named
// twice, and (via its drop step) input and register nodes nothing names —
// because the property under test is that Validate rejects them
// with an error and Levelize never panics on anything Validate accepts.
func decodeGraph(data []byte) *Graph {
	g := &Graph{Name: "fuzz"}
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	pick := func() NodeID {
		if len(g.Nodes) == 0 {
			return g.AddConst(1, 1)
		}
		return NodeID(int(next()) % len(g.Nodes))
	}
	// Widths range over 0..65 so the 1..64 validation boundary is
	// exercised from both sides. AddConst/AddInput/AddReg mask through
	// wire.Mask, which tolerates any width; Validate must reject them.
	width := func() int { return int(next()) % 66 }

	steps := int(next())%48 + 4
	for i := 0; i < steps; i++ {
		switch next() % 9 {
		case 0:
			g.AddInput("in", width())
		case 1:
			g.AddConst(uint64(next())<<8|uint64(next()), width())
		case 2:
			g.AddReg("r", width(), uint64(next()))
		case 3, 4:
			op := wire.Op(next() % byte(wire.NumOps))
			arity := int(next())%4 + 1
			args := make([]NodeID, arity)
			for j := range args {
				args[j] = pick()
			}
			g.AddOp(op, width(), args...)
		case 5:
			if len(g.Nodes) > 0 {
				g.AddOutput("out", pick())
			}
		case 6:
			// By entry, not by node: the repoint phase may have moved it.
			if len(g.Regs) > 0 {
				g.Regs[int(next())%len(g.Regs)].Next = pick()
			}
		case 7:
			// Patch phase: rewrite an existing argument to point anywhere,
			// which is how combinational cycles enter.
			if id := pick(); len(g.Nodes[id].Args) > 0 {
				j := int(next()) % len(g.Nodes[id].Args)
				g.Nodes[id].Args[j] = pick()
				g.topo = nil
			}
		case 8:
			// Repoint phase: an input port, or a register entry's node or
			// next-state, to any id — in range or up to 8 beyond it — or
			// drop a port or an entry, leaving its node named by nothing.
			to := NodeID(int(next()) % (len(g.Nodes) + 8))
			switch k := int(next()); {
			case k%5 == 0 && len(g.Inputs) > 0:
				g.Inputs[k/5%len(g.Inputs)].Node = to
			case k%5 == 1 && len(g.Regs) > 0:
				g.Regs[k/5%len(g.Regs)].Node = to
			case k%5 == 2 && len(g.Regs) > 0:
				g.Regs[k/5%len(g.Regs)].Next = to
			case k%5 == 3 && len(g.Inputs) > 0:
				i := k / 5 % len(g.Inputs)
				g.Inputs = append(g.Inputs[:i], g.Inputs[i+1:]...)
			case k%5 == 4 && len(g.Regs) > 0:
				i := k / 5 % len(g.Regs)
				g.Regs = append(g.Regs[:i], g.Regs[i+1:]...)
			}
		}
	}
	return g
}

// FuzzLevelize asserts the levelizer's contract: arbitrary (often
// malformed) graphs either fail Validate with an error — never a panic —
// or levelize successfully into a complete slot assignment.
func FuzzLevelize(f *testing.F) {
	f.Add([]byte{8, 0, 1, 2, 2, 3, 1, 1, 6, 0, 0, 5, 1})
	f.Add([]byte{16, 2, 10, 3, 5, 2, 0, 1, 7, 0, 0, 0, 6, 0, 2, 5, 3})
	f.Add([]byte{40, 0, 63, 1, 255, 17, 2, 9, 3, 3, 2, 1, 0, 4, 7, 1, 2, 5, 9, 6, 1, 4})
	f.Add([]byte("levelize me"))
	f.Add([]byte{12, 0, 8, 2, 8, 8, 9, 0, 2, 8, 1, 4, 8, 0, 7, 8, 3, 2})
	// An input whose port the drop phase removed: named by nothing.
	f.Add([]byte{0, 0, 8, 8, 0, 3, 5, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		if err := g.Validate(); err != nil {
			return // rejected cleanly: the contract holds
		}
		lv, err := Levelize(g)
		if err != nil {
			t.Fatalf("validated graph failed to levelize: %v", err)
		}
		if lv.SlotCount != len(g.Nodes) {
			t.Fatalf("slot count %d for %d nodes", lv.SlotCount, len(g.Nodes))
		}
		seen := make([]bool, lv.SlotCount)
		for _, s := range lv.Slot {
			if s < 0 || int(s) >= lv.SlotCount || seen[s] {
				t.Fatalf("slot assignment not a bijection at %d", s)
			}
			seen[s] = true
		}
	})
}
