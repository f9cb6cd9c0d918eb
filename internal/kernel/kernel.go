// Package kernel implements the seven progressively unrolled RTeAAL Sim
// kernels of §5.2 — RU, OU, NU, PSU, IU, SU, and TI — as cycle-accurate
// simulation engines over the OIM tensor. Each kernel in the sequence keeps
// its predecessors' optimisations and adds one more:
//
//	RU  unrolls only the one-hot R rank (Algorithm 3, format Fig. 12b)
//	OU  fully unrolls the O rank (operand fetch without an inner loop)
//	NU  swizzles S and N ([I,N,S,O,R], format Fig. 12c) and unrolls N into
//	    per-operation-type inner loops (Algorithm 4) over run-length S
//	    coordinates, writing each run's results to LI in place
//	PSU partially unrolls the S loops (8x compute); the paper's 24x
//	    write-back loop has nothing left to do — the write-back is elided
//	    by the LI layout (dfg.Levelize numbers a layer's operations in
//	    traversal order, so LO[k] is LI[first+k])
//	IU  fully unrolls the I rank: it walks the format's run list directly,
//	    so zero-iteration S loops are never visited
//	SU  fully unrolls the S rank into a flat per-operation tape, encoding
//	    the whole OIM in the "binary" (the tape) with no metadata arrays
//	TI  additionally inlines the LO tensor away, writing results straight
//	    to their LI coordinates (levelization makes that safe)
//
// All engines produce bit-identical traces; they differ only in control
// structure, which is what the benchmark's per-kind rates measure.
//
// The seven are one computation under seven mappings, so a copy of the op
// semantics lives only where its loop shape is the thing measured. The spec
// is wire.Eval / wire.Eval3, two entry points of one switch
// (internal/wire/wire.go): RU, OU, SU, TI, every fallback and the batch
// oracle (Batch.StepReference: the spec, lane by lane, over the
// tensor's operations) evaluate through it. Three files here keep bodies of
// their own: swizzled.go and psu_iu.go (runGroup, runGroup8), because
// hoisting the operation dispatch out of the S loop is NU/PSU/IU; and
// batch_sched.go, whose fitsMask decides when a result needs no mask, next
// to the lane loops of runOps and — in batch_packed.go — the word loops of
// runPackedOps, both keyed by opcode through the one opBodies table. CI's
// op-semantics guard keeps a per-op switch from growing anywhere else.
package kernel

import (
	"fmt"

	"rteaal/internal/oim"
)

// Kind selects one of the seven kernel configurations.
type Kind uint8

const (
	RU Kind = iota
	OU
	NU
	PSU
	IU
	SU
	TI
	NumKinds
)

var kindNames = [NumKinds]string{"RU", "OU", "NU", "PSU", "IU", "SU", "TI"}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kernel(%d)", uint8(k))
}

// Kinds lists all kernel configurations in unrolling order.
func Kinds() []Kind { return []Kind{RU, OU, NU, PSU, IU, SU, TI} }

// ParseKind resolves a kernel name.
func ParseKind(s string) (Kind, error) {
	for k := Kind(0); k < NumKinds; k++ {
		if kindNames[k] == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("kernel: unknown kind %q (want RU|OU|NU|PSU|IU|SU|TI)", s)
}

// Config selects the kernel.
type Config struct {
	Kind Kind
}

// Engine is a cycle-accurate simulator for one design. The host reaches it
// only through LI coordinates — a primary input and a register Q are both
// slots, poked with PokeSlot at [oim.Tensor.InputSlots] or
// [oim.Tensor.RegSlots] and read back with PeekSlot — and advances it only
// by Step and RunBulk.
type Engine interface {
	// Step runs one cycle: one combinational evaluation (one pass of
	// Cascade 1), the sampling of the primary outputs, and the register
	// commit.
	Step()
	// RunBulk runs spec.Cycles cycles with the spec's stimulus and
	// early-stop watch (see [RunSpec]), returning the completed cycle
	// count and whether the watch stopped the run. Bit-identical to
	// poking and stepping by hand.
	RunBulk(spec RunSpec) (ran int, stopped bool)
	// Reset restores registers and constants to their initial values.
	Reset()
	// PeekOutput reads the idx-th primary output as sampled at the settle
	// of the last completed cycle. It is not a slot read: an output may
	// alias a register Q, whose slot the commit has moved on since.
	PeekOutput(idx int) uint64
	// PeekSlot reads an input, output, register Q or constant between
	// cycles (for waveforms and host-DUT I/O). Any other LI coordinate is
	// an internal value of the settle, which no engine is bound to keep: a
	// [Batch] recycles its row.
	PeekSlot(slot int32) uint64
	// PokeSlot writes an input or register Q between cycles (host-DUT
	// communication, §6.2), masked to the slot's width.
	PokeSlot(slot int32, v uint64)
	// Tensor returns the underlying OIM.
	Tensor() *oim.Tensor
}

// state is the simulation state and port plumbing of the scalar engine: the
// LI tensor (one value per coordinate), the staged register commit, and
// output sampling at combinational settle.
type state struct {
	t    *oim.Tensor
	li   []uint64
	next []uint64
	outs []uint64
	// regsLead records that register i's Q coordinate is i, as Levelize
	// assigns them. A RepCut sub-tensor owns a subset of the registers and
	// does not have the property.
	regsLead bool
}

func newState(t *oim.Tensor) state {
	s := state{
		t:        t,
		li:       make([]uint64, t.NumSlots),
		next:     make([]uint64, len(t.RegSlots)),
		outs:     make([]uint64, len(t.OutputSlots)),
		regsLead: true,
	}
	for i, r := range t.RegSlots {
		s.regsLead = s.regsLead && r.Q == int32(i)
	}
	s.Reset()
	return s
}

func (s *state) Reset() {
	for i := range s.li {
		s.li[i] = 0
	}
	for _, c := range s.t.ConstSlots {
		s.li[c.Slot] = c.Value
	}
	for _, r := range s.t.RegSlots {
		s.li[r.Q] = r.Init
	}
	for i := range s.outs {
		s.outs[i] = 0
	}
}

func (s *state) PeekOutput(idx int) uint64     { return s.outs[idx] }
func (s *state) PeekSlot(slot int32) uint64    { return s.li[slot] }
func (s *state) PokeSlot(slot int32, v uint64) { s.li[slot] = v & s.t.Masks[slot] }
func (s *state) Tensor() *oim.Tensor           { return s.t }

func (s *state) sampleOutputs() {
	for i, slot := range s.t.OutputSlots {
		s.outs[i] = s.li[slot]
	}
}

// commit performs the simultaneous register update ending a cycle.
func (s *state) commit() {
	for i, r := range s.t.RegSlots {
		s.next[i] = s.li[r.Next] & r.Mask
	}
	if s.regsLead {
		copy(s.li, s.next)
		return
	}
	for i, r := range s.t.RegSlots {
		s.li[r.Q] = s.next[i]
	}
}

// engine is the one scalar engine type: the state, the kind, and its own
// slice headers for what that kind walks — the tensor's run list and R
// coordinates, or a lowering held by the [Program]. The copies are
// deliberate: runGroup reloads them once per run, and reaching them through
// the tensor or *Program instead costs designs with many short runs (RepCut
// sub-tensors) two dependent loads per run.
type engine struct {
	state
	kind      Kind
	a         *oim.Arrays // RU, OU
	runs      []oim.Run   // NU, PSU, IU: the tensor's Runs
	rc        []int32     // NU, PSU, IU: the tensor's RCoord
	npayload  []int32     // NU, PSU
	tape      []tapeOp    // SU, TI
	layerEnds []int       // SU
	lo        []uint64    // RU, OU, SU
}

// settleLoops is the §5.2 ladder: one combinational pass per kind, each in
// the file named for its loop shape.
var settleLoops = [NumKinds]func(*engine){
	RU: (*engine).settleRU, OU: (*engine).settleOU,
	NU: (*engine).settleNU, PSU: (*engine).settlePSU, IU: (*engine).settleIU,
	SU: (*engine).settleSU, TI: (*engine).settleTI,
}

func (e *engine) Step() {
	settleLoops[e.kind](e)
	e.sampleOutputs()
	e.commit()
}

func (e *engine) RunBulk(spec RunSpec) (int, bool) { return RunEngine(e, spec) }
