// Package oim builds the Operation Input Mask tensor at the heart of RTeAAL
// Sim (§4): a sparse 5-rank binary tensor OIM[i, s, n, o, r] whose occupied
// points say "operation s in layer i has type n and reads layer-input
// coordinate r as its o-th operand". Together with the layer-input tensor
// LI (a dense value vector indexed by r/s coordinates) it fully describes
// one simulated cycle of a levelized dataflow graph.
//
// Identity elision (§4.3) is baked into coordinate assignment: every node of
// the design owns one LI coordinate for its entire lifetime, performed here
// by dfg.Levelize, so no identity operations appear in the tensor. The same
// assignment numbers each layer's operations grouped by N coordinate, which
// elides the layer write-back for the swizzled format (see Swizzled).
//
// The package lowers the canonical tensor onto the three concrete formats of
// Figure 12 (unoptimized, optimized, and S-N swizzled), exports a true
// fibertree view for the einsum reference evaluator, and serialises to JSON
// as the compiler pipeline of Figure 14 requires.
package oim

import (
	"fmt"

	"rteaal/internal/dfg"
	"rteaal/internal/fibertree"
	"rteaal/internal/teaal"
	"rteaal/internal/wire"
)

// OpSig is one coordinate of the N rank (see dfg.OpSig).
type OpSig = dfg.OpSig

// Op is one occupied S coordinate in canonical (format-independent) form.
type Op struct {
	Sig  uint16  // N coordinate (index into Tensor.OpTable)
	Out  int32   // S coordinate: the operation's LI slot
	Args []int32 // R coordinates in operand (O) order
}

// Tensor is the canonical OIM plus everything the kernels need to simulate:
// masks, constant preloads, register slots, and port bindings.
type Tensor struct {
	Design   string
	NumSlots int
	OpTable  []OpSig
	// Layers lists each layer's operations. Build emits them grouped by N
	// coordinate with consecutive ascending S coordinates; sub-tensors and
	// tensors read from JSON need not keep either property.
	Layers [][]Op

	// Masks holds the width mask of every LI slot.
	Masks []uint64
	// ConstSlots are preloaded at reset (constants of the design).
	ConstSlots []dfg.SlotInit
	// RegSlots locate each register's Q and next-state coordinates.
	RegSlots []dfg.RegSlot
	// InputSlots/OutputSlots bind primary ports to LI coordinates.
	InputSlots  []int32
	OutputSlots []int32
	// InputNames/OutputNames preserve port names for by-name access.
	InputNames  []string
	OutputNames []string
	// RegNames preserves register names (RegSlots order) so the DMI layer
	// of §6.2 can bind host ports to architectural state by name.
	RegNames []string

	// EffectualOps and IdentityOps carry the Table 1 accounting from
	// levelization (identities are counted, then elided).
	EffectualOps int64
	IdentityOps  int64
}

// Build constructs the OIM from a levelized dataflow graph.
func Build(lv *dfg.Levelized) (*Tensor, error) {
	g := lv.G
	t := &Tensor{
		Design:       g.Name,
		NumSlots:     lv.SlotCount,
		Masks:        make([]uint64, lv.SlotCount),
		ConstSlots:   append([]dfg.SlotInit(nil), lv.ConstSlots...),
		OpTable:      lv.OpTable,
		RegSlots:     append([]dfg.RegSlot(nil), lv.RegSlots...),
		InputSlots:   append([]int32(nil), lv.InputSlots...),
		OutputSlots:  append([]int32(nil), lv.OutputSlots...),
		EffectualOps: lv.EffectualOps,
		IdentityOps:  lv.IdentityOps,
	}
	for _, p := range g.Inputs {
		t.InputNames = append(t.InputNames, p.Name)
	}
	for _, p := range g.Outputs {
		t.OutputNames = append(t.OutputNames, p.Name)
	}
	for _, r := range g.Regs {
		t.RegNames = append(t.RegNames, g.Nodes[r.Node].Name)
	}
	for id := range g.Nodes {
		t.Masks[lv.Slot[id]] = g.Nodes[id].Mask()
	}

	t.Layers = make([][]Op, lv.NumLayers)
	next := int32(lv.SlotCount - int(lv.EffectualOps))
	for li, layer := range lv.Layers {
		ops := make([]Op, 0, len(layer))
		sig := 0
		for _, id := range layer {
			n := g.Node(id)
			// The layer arrives grouped in OpTable order, so the N
			// coordinate is found by walking the table forward.
			want := OpSig{Op: n.Op, Arity: uint8(len(n.Args))}
			for sig < len(t.OpTable) && t.OpTable[sig] != want {
				sig++
			}
			// The layout invariant the swizzled kernels are built on:
			// assert it here, once, rather than sort.
			if sig == len(t.OpTable) || lv.Slot[id] != next {
				return nil, fmt.Errorf("oim: layer %d is not numbered consecutively in N-coordinate order", li)
			}
			next++
			args := make([]int32, len(n.Args))
			for i, a := range n.Args {
				args[i] = lv.Slot[a]
			}
			ops = append(ops, Op{Sig: uint16(sig), Out: lv.Slot[id], Args: args})
		}
		t.Layers[li] = ops
	}
	return t, nil
}

// NumLayers is the shape of the I rank.
func (t *Tensor) NumLayers() int { return len(t.Layers) }

// TotalOps counts occupied S coordinates across all layers.
func (t *Tensor) TotalOps() int {
	n := 0
	for _, l := range t.Layers {
		n += len(l)
	}
	return n
}

// TotalOperands counts occupied R coordinates across all operations.
func (t *Tensor) TotalOperands() int {
	n := 0
	for _, l := range t.Layers {
		for _, op := range l {
			n += len(op.Args)
		}
	}
	return n
}

// Shapes returns the rank shapes for [I,S,N,O,R]. The O shape is the
// maximum arity; S and R share the LI coordinate space.
func (t *Tensor) Shapes() []int64 {
	maxAr := 1
	for _, s := range t.OpTable {
		if int(s.Arity) > maxAr {
			maxAr = int(s.Arity)
		}
	}
	return []int64{int64(t.NumLayers()), int64(t.NumSlots), int64(len(t.OpTable)),
		int64(maxAr), int64(t.NumSlots)}
}

// Fibertree exports the canonical tensor as an explicit [I,S,N,O,R]
// fibertree (every occupied point has payload 1), the representation the
// einsum reference evaluator consumes.
func (t *Tensor) Fibertree() *fibertree.Tensor {
	ft := fibertree.NewTensor("OIM", []string{"I", "S", "N", "O", "R"}, t.Shapes())
	shapes := t.Shapes()
	for i, layer := range t.Layers {
		for _, op := range layer {
			sF := ft.Root.GetOrCreateSub(fibertree.Coord(i), shapes[1])
			nF := sF.GetOrCreateSub(fibertree.Coord(op.Out), shapes[2])
			oF := nF.GetOrCreateSub(fibertree.Coord(op.Sig), shapes[3])
			for o, r := range op.Args {
				rF := oF.GetOrCreateSub(fibertree.Coord(o), shapes[4])
				rF.SetLeaf(fibertree.Coord(r), 1)
			}
		}
	}
	return ft
}

// OpOf implements the einsum Env callback: operation kind and arity for an
// N coordinate.
func (t *Tensor) OpOf(n fibertree.Coord) (wire.Op, int) {
	s := t.OpTable[n]
	return s.Op, int(s.Arity)
}

// MaskOf implements the einsum Env callback: output mask of an S coordinate.
func (t *Tensor) MaskOf(s fibertree.Coord) uint64 { return t.Masks[s] }

// Density reports the OIM's occupancy over its full iteration space, the
// quantity the paper reports as 1e-7..1e-9 (§5.1).
func (t *Tensor) Density() float64 {
	sh := t.Shapes()
	total := 1.0
	for _, s := range sh {
		total *= float64(s)
	}
	return float64(t.TotalOperands()) / total
}

// ConcreteFormat fills in the "non-zero" bitwidths of a Figure 12 format
// from this tensor's actual coordinate and payload ranges.
func (t *Tensor) ConcreteFormat(f teaal.Format) teaal.Format {
	maxOpsPerLayer := uint64(0)
	for _, l := range t.Layers {
		if uint64(len(l)) > maxOpsPerLayer {
			maxOpsPerLayer = uint64(len(l))
		}
	}
	maxCoord := map[string]uint64{
		"S": uint64(t.NumSlots - 1),
		"N": uint64(len(t.OpTable) - 1),
		"R": uint64(t.NumSlots - 1),
	}
	maxPayload := map[string]uint64{
		"I": maxOpsPerLayer,
		"S": 1,
		"N": maxOpsPerLayer, // swizzled: ops per type per layer
		"O": 1,
		"R": 1,
	}
	return teaal.Concretise(f, maxCoord, maxPayload)
}

// Entries returns per-rank entry counts for footprint computation under the
// given rank order ([I,S,N,O,R] or [I,N,S,O,R]).
func (t *Tensor) Entries(swizzled bool) map[string]int {
	if swizzled {
		return map[string]int{
			"I": t.NumLayers(),
			"N": t.NumLayers() * len(t.OpTable),
			"S": t.TotalOps(),
			"O": t.TotalOperands(),
			"R": t.TotalOperands(),
		}
	}
	return map[string]int{
		"I": t.NumLayers(),
		"S": t.TotalOps(),
		"N": t.TotalOps(),
		"O": t.TotalOperands(),
		"R": t.TotalOperands(),
	}
}

// FootprintBytes is the metadata footprint of this tensor under a format.
func (t *Tensor) FootprintBytes(f teaal.Format) int64 {
	swizzled := len(f.RankOrder) > 1 && f.RankOrder[1] == "N"
	return teaal.Footprint(t.ConcreteFormat(f), t.Entries(swizzled))
}
