package kernel

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"rteaal/internal/oim"
)

// SignalKind classifies a named signal of a design: a primary input, a
// primary output, or an architectural register.
type SignalKind uint8

const (
	// SignalInput is a primary input, driven by the host each cycle.
	SignalInput SignalKind = iota
	// SignalOutput is a primary output, sampled at every settle.
	SignalOutput
	// SignalRegister is an architectural register; its signal reads and
	// writes the committed (Q) coordinate.
	SignalRegister
)

func (k SignalKind) String() string {
	switch k {
	case SignalInput:
		return "input"
	case SignalOutput:
		return "output"
	case SignalRegister:
		return "register"
	}
	return fmt.Sprintf("signal(%d)", uint8(k))
}

// Signal is the compile-time resolution of a signal name: the LI coordinate
// it lives at, its width mask, and the port index for the index-based fast
// paths. Resolving once and driving by Slot/Index is what keeps per-cycle
// host↔DUT exchange (§6.2) off the name table.
type Signal struct {
	Name string
	// Mask is the signal's width mask; pokes are masked to it.
	Mask uint64
	// Index is the position within the signal's class: the PokeInput index
	// for inputs, the PeekOutput index for outputs, the RegSlots index for
	// registers.
	Index int
	// Slot is the readable LI coordinate (the Q coordinate for registers).
	Slot int32
	Kind SignalKind
}

// SignalMap resolves signal names of one design to LI coordinates: its
// signals sorted by (name, kind), searched by bisection. Built once per
// tensor by [NewSignalMap] (sim keeps it on the Design, behind
// Design.Signals) and read-only thereafter, so any number of concurrent
// sessions may share it.
type SignalMap []Signal

// NewSignalMap indexes a tensor's named signals.
func NewSignalMap(t *oim.Tensor) SignalMap {
	sigs := make([]Signal, 0, len(t.InputNames)+len(t.OutputNames)+len(t.RegNames))
	for i, name := range t.InputNames {
		slot := t.InputSlots[i]
		sigs = append(sigs, Signal{Name: name, Kind: SignalInput, Index: i, Slot: slot, Mask: t.Masks[slot]})
	}
	for i, name := range t.OutputNames {
		slot := t.OutputSlots[i]
		sigs = append(sigs, Signal{Name: name, Kind: SignalOutput, Index: i, Slot: slot, Mask: t.Masks[slot]})
	}
	for i, name := range t.RegNames {
		r := t.RegSlots[i]
		sigs = append(sigs, Signal{Name: name, Kind: SignalRegister, Index: i, Slot: r.Q, Mask: r.Mask})
	}
	sigs = slices.DeleteFunc(sigs, func(s Signal) bool { return s.Name == "" })
	slices.SortStableFunc(sigs, byNameKind)
	return sigs
}

func byNameKind(a, b Signal) int {
	return cmp.Or(strings.Compare(a.Name, b.Name), cmp.Compare(a.Kind, b.Kind))
}

// find returns the first signal at or after (name, kind) in sort order, and
// whether it carries that name.
func (sm SignalMap) find(name string, kind SignalKind) (Signal, bool) {
	i, _ := slices.BinarySearchFunc(sm, Signal{Name: name, Kind: kind}, byNameKind)
	if i == len(sm) || sm[i].Name != name {
		return Signal{}, false
	}
	return sm[i], true
}

// Resolve looks a signal up by name. When one name is used by several
// classes, inputs shadow outputs, which shadow registers — the host-facing
// port wins, matching how FIRRTL exposes a register through a same-named
// output — which is the order the kinds sort in.
func (sm SignalMap) Resolve(name string) (Signal, bool) { return sm.find(name, 0) }

// ResolveKind looks up the signal of one class by name, shadowed or not.
func (sm SignalMap) ResolveKind(name string, kind SignalKind) (Signal, bool) {
	s, ok := sm.find(name, kind)
	return s, ok && s.Kind == kind
}

// Names lists every resolvable signal name, sorted.
func (sm SignalMap) Names() []string {
	names := make([]string, 0, len(sm))
	for i, s := range sm {
		if i == 0 || s.Name != sm[i-1].Name {
			names = append(names, s.Name)
		}
	}
	return names
}
