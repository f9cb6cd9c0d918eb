package dfg

import (
	"fmt"

	"rteaal/internal/wire"
)

// Levelized is the result of slicing a dataflow graph into layers (§4.2):
// every operation in layer i depends only on sources (registers, inputs,
// constants) and on operations in layers < i. It also carries the coordinate
// assignment that performs identity-operator elision (§4.3): every node —
// source or operation — receives a unique coordinate ("slot") in the
// layer-input tensor LI, so a value produced in layer p and consumed in
// layer c simply stays at its coordinate instead of being copied through
// c-p-1 identity operations.
//
// The same assignment elides the write-back: inside a layer, operations are
// numbered grouped by N coordinate, so the swizzled [I,N,S,O,R] traversal
// visits S in ascending, consecutive order and the k-th output of a layer
// already is its LI coordinate (see oim.Run).
type Levelized struct {
	G         *Graph
	NumLayers int
	// OpTable is the N rank: every (operation, arity) signature occurring
	// in the graph, ascending by operation then arity. It is the one
	// ordering key both the coordinate assignment and the OIM lowerings use.
	OpTable []OpSig
	// Layers lists the operation nodes of each layer grouped by N
	// coordinate (OpTable order), ascending NodeID inside a group. Slots
	// ascend consecutively along each layer and from one layer to the next.
	Layers [][]NodeID
	// LevelOf maps every node to its layer; sources are -1.
	LevelOf []int32
	// Slot maps every node to its LI coordinate.
	Slot []int32
	// SlotCount is the shape of the R/S ranks (the LI length).
	SlotCount int
	// ConstSlots lists (slot, value) pairs preloaded at reset.
	ConstSlots []SlotInit
	// RegSlots lists, per register, the (Q slot, next-state slot, init).
	RegSlots []RegSlot
	// InputSlots lists the LI coordinate of each primary input, in
	// Graph.Inputs order.
	InputSlots []int32
	// OutputSlots lists the LI coordinate of each primary output.
	OutputSlots []int32

	// EffectualOps counts real operations; IdentityOps counts the identity
	// operations that cascade construction would insert before elision
	// (Table 1's accounting).
	EffectualOps int64
	IdentityOps  int64
}

// OpSig is one coordinate of the N rank: an operation kind together with its
// operand count. Variable-arity operations (mux chains) get one N coordinate
// per occurring arity, which keeps the paper's invariant that the operation
// type determines the occupancy of the O-rank fiber (§5.1).
type OpSig struct {
	Op    wire.Op
	Arity uint8
}

func (s OpSig) String() string { return fmt.Sprintf("%v/%d", s.Op, s.Arity) }

// SlotInit is a preloaded LI coordinate.
type SlotInit struct {
	Slot  int32
	Value uint64
}

// RegSlot locates one register's current-value and next-value coordinates.
type RegSlot struct {
	Q    int32
	Next int32
	Init uint64
	// Mask is the register's width mask; commits apply it defensively.
	Mask uint64
}

// Levelize slices g into layers and assigns LI coordinates. The graph must
// Validate.
func Levelize(g *Graph) (*Levelized, error) {
	n := len(g.Nodes)
	lv := &Levelized{G: g, LevelOf: make([]int32, n), Slot: make([]int32, n)}

	// Layer assignment (ASAP), in id order so every argument's layer is
	// final: sources are -1; an op is one past its deepest argument.
	for i := range lv.LevelOf {
		lv.LevelOf[i] = -1
	}
	maxLayer := int32(-1)
	for id := range g.Nodes {
		nd := &g.Nodes[id]
		if nd.Kind != KindOp {
			continue
		}
		layer := int32(0)
		for _, a := range nd.Args {
			if l := lv.LevelOf[a] + 1; l > layer {
				layer = l
			}
		}
		lv.LevelOf[id] = layer
		if layer > maxLayer {
			maxLayer = layer
		}
	}
	lv.NumLayers = int(maxLayer + 1)

	// N coordinates: the occurring signatures, ascending. nOf maps a
	// signature's (op, arity) key to its OpTable index.
	nOf := make([]int32, int(wire.NumOps)<<8)
	for id := range g.Nodes {
		if nd := &g.Nodes[id]; nd.Kind == KindOp {
			if len(nd.Args) < 1 || len(nd.Args) > 255 {
				return nil, fmt.Errorf("dfg: node %d (%s): unsupported arity %d", id, nd.Name, len(nd.Args))
			}
			nOf[int(nd.Op)<<8|len(nd.Args)] = 1
		}
	}
	for key, present := range nOf {
		if present != 0 {
			nOf[key] = int32(len(lv.OpTable))
			lv.OpTable = append(lv.OpTable, OpSig{Op: wire.Op(key >> 8), Arity: uint8(key)})
		}
	}

	// Layers: one stable counting sort of the operations by (layer, N
	// coordinate), so the cost stays linear in the graph.
	numSigs := len(lv.OpTable)
	groupOf := func(id int) int {
		nd := &g.Nodes[id]
		return int(lv.LevelOf[id])*numSigs + int(nOf[int(nd.Op)<<8|len(nd.Args)])
	}
	start := make([]int32, lv.NumLayers*numSigs+1)
	for id := range g.Nodes {
		if g.Nodes[id].Kind == KindOp {
			start[groupOf(id)+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	lv.Layers = make([][]NodeID, lv.NumLayers)
	order := make([]NodeID, start[len(start)-1])
	for l := range lv.Layers {
		lv.Layers[l] = order[start[l*numSigs]:start[(l+1)*numSigs]:start[(l+1)*numSigs]]
	}
	for id := range g.Nodes {
		if g.Nodes[id].Kind == KindOp {
			grp := groupOf(id)
			order[start[grp]] = NodeID(id)
			start[grp]++
		}
	}

	// Coordinate assignment: sources first (registers, then inputs, then
	// constants, each in declaration order), then operations layer by
	// layer in Layers order. The ordering is what makes register commits,
	// testbench pokes, and OIM generation deterministic, and what lets the
	// swizzled kernels write a run of results straight to LI.
	slot := int32(0)
	assigned := make([]bool, n)
	assign := func(id NodeID) {
		if assigned[id] {
			panic(fmt.Sprintf("dfg: node %d assigned twice", id))
		}
		assigned[id] = true
		lv.Slot[id] = slot
		slot++
	}
	for _, r := range g.Regs {
		assign(r.Node)
	}
	for _, p := range g.Inputs {
		assign(p.Node)
	}
	for id := range g.Nodes {
		if g.Nodes[id].Kind == KindConst {
			assign(NodeID(id))
		}
	}
	for _, layer := range lv.Layers {
		for _, id := range layer {
			assign(id)
		}
	}
	if int(slot) != n {
		return nil, fmt.Errorf("dfg: levelize: %d of %d nodes assigned slots", slot, n)
	}
	lv.SlotCount = n

	for id := range g.Nodes {
		nd := &g.Nodes[id]
		if nd.Kind == KindConst {
			lv.ConstSlots = append(lv.ConstSlots, SlotInit{Slot: lv.Slot[id], Value: nd.Val})
		}
	}
	for _, r := range g.Regs {
		lv.RegSlots = append(lv.RegSlots, RegSlot{
			Q:    lv.Slot[r.Node],
			Next: lv.Slot[r.Next],
			Init: r.Init,
			Mask: g.Nodes[r.Node].Mask(),
		})
	}
	for _, p := range g.Inputs {
		lv.InputSlots = append(lv.InputSlots, lv.Slot[p.Node])
	}
	for _, p := range g.Outputs {
		lv.OutputSlots = append(lv.OutputSlots, lv.Slot[p.Node])
	}

	lv.countIdentities()
	return lv, nil
}

// countIdentities computes the Table 1 accounting: how many identity
// operations the cascade of §4.2 would contain before elision. A value
// produced at layer p (sources: p = -1) whose latest consumer sits at layer
// c needs one identity per intermediate layer, i.e. c-p-1 of them; register
// next-states must additionally survive to the final write-back, i.e. to
// layer NumLayers.
func (lv *Levelized) countIdentities() {
	g := lv.G
	lastUse := make([]int32, len(g.Nodes))
	for i := range lastUse {
		lastUse[i] = -2 // unused
	}
	for id := range g.Nodes {
		nd := &g.Nodes[id]
		if nd.Kind != KindOp {
			continue
		}
		for _, a := range nd.Args {
			if lv.LevelOf[id] > lastUse[a] {
				lastUse[a] = lv.LevelOf[id]
			}
		}
	}
	final := int32(lv.NumLayers)
	for _, r := range g.Regs {
		if lastUse[r.Next] < final {
			lastUse[r.Next] = final
		}
	}
	for _, p := range g.Outputs {
		// Source-valued outputs (registers, inputs, constants) are read
		// from committed state and need no carrying; op-valued outputs
		// must survive to the final write-back.
		if g.Nodes[p.Node].Kind == KindOp && lastUse[p.Node] < final {
			lastUse[p.Node] = final
		}
	}
	var identities int64
	for id := range g.Nodes {
		if lastUse[id] < 0 {
			continue
		}
		span := int64(lastUse[id] - lv.LevelOf[id] - 1)
		if span > 0 {
			identities += span
		}
	}
	lv.IdentityOps = identities
	var ops int64
	for _, layer := range lv.Layers {
		ops += int64(len(layer))
	}
	lv.EffectualOps = ops
}

// LayerSizes returns the operation count of each layer.
func (lv *Levelized) LayerSizes() []int {
	out := make([]int, lv.NumLayers)
	for i, l := range lv.Layers {
		out[i] = len(l)
	}
	return out
}
