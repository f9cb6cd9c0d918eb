// Package oim builds the Operation Input Mask tensor at the heart of RTeAAL
// Sim (§4): a sparse 5-rank binary tensor OIM[i, s, n, o, r] whose occupied
// points say "operation s in layer i has type n and reads layer-input
// coordinate r as its o-th operand". Together with the layer-input tensor
// LI (a dense value vector indexed by r/s coordinates) it fully describes
// one simulated cycle of a levelized dataflow graph.
//
// The tensor is held once, in the format the paper's fastest rolled kernels
// walk (Figure 12c, rank order [I, N, S, O, R]) with the S rank run-length
// encoded: LayerEnds cuts Runs into layers, a [Run] is Count operations of
// one type at consecutive S coordinates, and RCoord lists every operand
// coordinate in the same order. There is no per-operation object. NU, PSU
// and IU execute these arrays as they are; everything else reads them
// through [Tensor.Ops]: the [Arrays] lowering of Figure 12a/b (RU, OU), the
// SU/TI tape, the batch oracle, the partition planner, and the JSON of
// Figure 14's compiler pipeline. Cascade 1, the
// paper's einsum for one settle over this tensor, is executed as written by
// the RU kernel (internal/kernel/rolled.go).
//
// Identity elision (§4.3) is baked into coordinate assignment: dfg.Levelize
// gives every node one LI coordinate for its entire lifetime, so no identity
// operations appear in the tensor, and numbers each layer's operations
// grouped by N coordinate with consecutive S — which is why a (layer, type)
// group of a [Build] tensor is one run and the kernels write LI in place.
package oim

import (
	"fmt"
	"slices"

	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// OpSig is one coordinate of the N rank (see dfg.OpSig).
type OpSig = dfg.OpSig

// Run is Count operations of type Sig (an N coordinate) whose S coordinates
// are First, First+1, ..., First+Count-1: the k-th result of the run is
// LI[First+k] and its mask is Masks[First+k].
type Run struct {
	Sig   uint16
	First int32
	Count int32
}

// Tensor is the OIM plus everything the kernels need to simulate: masks,
// constant preloads, register slots, and port bindings.
type Tensor struct {
	Design   string
	NumSlots int
	OpTable  []OpSig

	// LayerEnds[i] is one past layer i's last run in Runs (the I rank).
	LayerEnds []int32
	// Runs lists the operations in traversal order — layer, then type, then
	// S — run-length encoded; a run never spans two (layer, type) groups. A
	// group is exactly one run on a tensor from Build; a RepCut sub-tensor
	// (the same slot space, its cone's operations) may take several, so
	// consumers walk Runs.
	Runs []Run
	// RCoord lists operand coordinates in the same order, Arity(Sig) per
	// operation. It is the only copy of an operand list; consumers slice it.
	RCoord []int32

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
		LayerEnds:    make([]int32, 0, lv.NumLayers),
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

	next := int32(lv.SlotCount - int(lv.EffectualOps))
	for li, layer := range lv.Layers {
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
			t.push(uint16(sig), next)
			next++
			for _, a := range n.Args {
				t.RCoord = append(t.RCoord, lv.Slot[a])
			}
		}
		t.endLayer()
	}
	t.RCoord = slices.Clone(t.RCoord) // drop append's spare capacity: the design keeps this array
	return t, nil
}

// push appends one operation to the layer under construction (the runs past
// the last layer end): it extends the last run when the operation continues
// it and starts a new run otherwise. The caller appends the operands to
// RCoord.
func (t *Tensor) push(sig uint16, out int32) {
	open := 0
	if n := len(t.LayerEnds); n > 0 {
		open = int(t.LayerEnds[n-1])
	}
	if n := len(t.Runs); n > open {
		if last := &t.Runs[n-1]; last.Sig == sig && last.First+last.Count == out {
			last.Count++
			return
		}
	}
	t.Runs = append(t.Runs, Run{Sig: sig, First: out, Count: 1})
}

// endLayer closes the layer under construction.
func (t *Tensor) endLayer() { t.LayerEnds = append(t.LayerEnds, int32(len(t.Runs))) }

// Ops is the one traversal of the tensor: it calls f for every operation in
// format order (layer, then type, then S) with the operation's layer, N and
// S coordinates and its operand coordinates, a slice of RCoord that f may
// keep but must not modify.
func (t *Tensor) Ops(f func(layer int, sig uint16, out int32, args []int32)) {
	ru, ri := 0, 0
	for i, end := range t.LayerEnds {
		for ; ru < int(end); ru++ {
			r := t.Runs[ru]
			ar := int(t.OpTable[r.Sig].Arity)
			for k := int32(0); k < r.Count; k++ {
				f(i, r.Sig, r.First+k, t.RCoord[ri:ri+ar:ri+ar])
				ri += ar
			}
		}
	}
}

// Cone returns the sub-tensor of the operations whose S coordinate is marked
// in keep: the same slot space, tables and ports, with the operation arrays
// filtered (so its runs are shorter, and layers left empty are dropped).
// RepCut builds each partition's tensor this way.
func (t *Tensor) Cone(keep []bool) *Tensor {
	sub := *t
	sub.LayerEnds, sub.Runs, sub.RCoord = nil, nil, nil
	last := 0
	t.Ops(func(layer int, sig uint16, out int32, args []int32) {
		if !keep[out] {
			return
		}
		if layer != last && len(sub.Runs) > 0 {
			sub.endLayer()
		}
		last = layer
		sub.push(sig, out)
		sub.RCoord = append(sub.RCoord, args...)
	})
	if len(sub.Runs) > 0 {
		sub.endLayer()
	}
	sub.RCoord = slices.Clone(sub.RCoord)
	return &sub
}

// Validate checks the invariants every engine relies on, so that a tensor
// that passes cannot crash one or make two of them disagree: the layer ends
// cut Runs; within a layer run types are in range and in N order; a run
// covers at least one coordinate; RCoord holds exactly each operation's
// operands; every coordinate is in range and has one writer (an operation,
// or the host and reset through a port, constant or register entry); an
// operation reads only coordinates settled before its layer; no name table
// is longer than its slot table; no constant or register initial value
// exceeds its slot's mask (the packed and wide batch layouts would read it
// differently). Build's output and its cones pass by construction; the
// tests hold them to it.
func (t *Tensor) Validate() error {
	if len(t.Masks) != t.NumSlots {
		return fmt.Errorf("oim: mask table length %d != %d slots", len(t.Masks), t.NumSlots)
	}
	for n, s := range t.OpTable {
		if s.Op >= wire.NumOps {
			return fmt.Errorf("oim: unknown op code %d", s.Op)
		}
		want := wire.Arity(s.Op)
		if (want == wire.VarArity && s.Arity%2 == 0) || (want != wire.VarArity && int(s.Arity) != want) {
			return fmt.Errorf("oim: op table entry %d: %v cannot take %d operands", n, s.Op, s.Arity)
		}
	}

	// writer[s] is the layer whose operation writes coordinate s.
	const none = -1
	writer := make([]int32, t.NumSlots)
	for s := range writer {
		writer[s] = none
	}
	ru, operands := 0, 0
	for i, end := range t.LayerEnds {
		if int(end) < ru || int(end) > len(t.Runs) {
			return fmt.Errorf("oim: layer %d ends at run %d, outside [%d, %d]", i, end, ru, len(t.Runs))
		}
		for first := ru; ru < int(end); ru++ {
			r := t.Runs[ru]
			if int(r.Sig) >= len(t.OpTable) || (ru > first && r.Sig < t.Runs[ru-1].Sig) {
				return fmt.Errorf("oim: layer %d: run %d has type %d, out of range or out of N order", i, ru, r.Sig)
			}
			if r.Count < 1 || r.First < 0 || int(r.First)+int(r.Count) > t.NumSlots {
				return fmt.Errorf("oim: layer %d: run %d covers %d coordinates from %d, outside the %d slots", i, ru, r.Count, r.First, t.NumSlots)
			}
			for s := r.First; s < r.First+r.Count; s++ {
				if writer[s] != none {
					return fmt.Errorf("oim: layer %d: coordinate %d has two writers", i, s)
				}
				writer[s] = int32(i)
			}
			operands += int(r.Count) * int(t.OpTable[r.Sig].Arity)
		}
	}
	if ru != len(t.Runs) || operands != len(t.RCoord) {
		return fmt.Errorf("oim: %d runs past the last layer, %d operand coordinates for %d operands",
			len(t.Runs)-ru, len(t.RCoord), operands)
	}

	if len(t.InputNames) > len(t.InputSlots) || len(t.OutputNames) > len(t.OutputSlots) || len(t.RegNames) > len(t.RegSlots) {
		return fmt.Errorf("oim: a name table is longer than its slot table")
	}
	// sources are written by the host, reset or the register commit; the
	// other bound coordinates are only read.
	sources, read := slices.Clone(t.InputSlots), slices.Clone(t.OutputSlots)
	for _, c := range t.ConstSlots {
		sources = append(sources, c.Slot)
	}
	for _, r := range t.RegSlots {
		sources, read = append(sources, r.Q), append(read, r.Next)
	}
	for _, coords := range [][]int32{t.RCoord, read, sources} {
		for _, s := range coords {
			if s < 0 || int(s) >= t.NumSlots {
				return fmt.Errorf("oim: slot %d out of range (%d slots)", s, t.NumSlots)
			}
		}
	}
	for _, s := range sources {
		if writer[s] != none {
			return fmt.Errorf("oim: coordinate %d is a port, constant or register and also written in layer %d", s, writer[s])
		}
	}
	for _, c := range t.ConstSlots {
		if c.Value > t.Masks[c.Slot] {
			return fmt.Errorf("oim: constant %#x at slot %d exceeds its mask %#x", c.Value, c.Slot, t.Masks[c.Slot])
		}
	}
	for _, r := range t.RegSlots {
		if r.Init > t.Masks[r.Q] {
			return fmt.Errorf("oim: register init %#x at slot %d exceeds its mask %#x", r.Init, r.Q, t.Masks[r.Q])
		}
	}
	var err error
	t.Ops(func(layer int, _ uint16, out int32, args []int32) {
		for _, a := range args {
			if err == nil && writer[a] >= int32(layer) {
				err = fmt.Errorf("oim: layer %d: s=%d reads coordinate %d, which settles in layer %d", layer, out, a, writer[a])
			}
		}
	})
	return err
}

// NumLayers is the shape of the I rank.
func (t *Tensor) NumLayers() int { return len(t.LayerEnds) }

// TotalOps counts occupied S coordinates across all layers.
func (t *Tensor) TotalOps() int {
	n := 0
	for _, r := range t.Runs {
		n += int(r.Count)
	}
	return n
}

// TotalOperands counts occupied R coordinates across all operations.
func (t *Tensor) TotalOperands() int { return len(t.RCoord) }

// MaxLayerOps is the largest layer's operation count: the size of the LO
// buffer of the kernels that stage a layer's results.
func (t *Tensor) MaxLayerOps() int {
	most, ru := 0, 0
	for _, end := range t.LayerEnds {
		n := 0
		for ; ru < int(end); ru++ {
			n += int(t.Runs[ru].Count)
		}
		most = max(most, n)
	}
	return most
}

// NPayload derives the uncompressed N rank of Figure 12c: entry
// layer*len(OpTable)+sig is the operation count of that (layer, type) group,
// which NU and PSU consult to find where a group's runs end.
func (t *Tensor) NPayload() []int32 {
	np := make([]int32, t.NumLayers()*len(t.OpTable))
	ru := 0
	for i, end := range t.LayerEnds {
		for ; ru < int(end); ru++ {
			np[i*len(t.OpTable)+int(t.Runs[ru].Sig)] += t.Runs[ru].Count
		}
	}
	return np
}

// Density reports the OIM's occupancy over its full iteration space
// [I,S,N,O,R] — S and R share the LI coordinate space and O is the largest
// arity — the quantity the paper reports as 1e-7..1e-9 (§5.1).
func (t *Tensor) Density() float64 {
	maxAr := 1
	for _, s := range t.OpTable {
		maxAr = max(maxAr, int(s.Arity))
	}
	points := float64(t.NumLayers()) * float64(t.NumSlots) * float64(len(t.OpTable)) *
		float64(maxAr) * float64(t.NumSlots)
	return float64(t.TotalOperands()) / points
}
