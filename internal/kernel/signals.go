package kernel

import (
	"fmt"
	"sort"

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
// host↔DUT exchange (§6.2) off the name maps.
type Signal struct {
	Name string
	Kind SignalKind
	// Index is the position within the signal's class: the PokeInput index
	// for inputs, the PeekOutput index for outputs, the RegSlots index for
	// registers.
	Index int
	// Slot is the readable LI coordinate (the Q coordinate for registers).
	Slot int32
	// Mask is the signal's width mask; pokes are masked to it.
	Mask uint64
}

// SignalMap resolves signal names of one design to LI coordinates. Built
// once per tensor by [NewSignalMap] (sim keeps it on the Design, behind
// Design.Signals) and read-only thereafter, so any number of concurrent
// sessions may share it.
type SignalMap struct {
	byName map[string]Signal
	names  []string // sorted, for stable listings
}

// NewSignalMap indexes a tensor's named signals. When one name is used by
// several classes, inputs shadow outputs, which shadow registers — the
// host-facing port wins, matching how FIRRTL exposes a register through a
// same-named output.
func NewSignalMap(t *oim.Tensor) SignalMap {
	m := make(map[string]Signal,
		len(t.InputNames)+len(t.OutputNames)+len(t.RegNames))
	add := func(s Signal) {
		if _, taken := m[s.Name]; s.Name == "" || taken {
			return
		}
		m[s.Name] = s
	}
	for i, name := range t.InputNames {
		slot := t.InputSlots[i]
		add(Signal{Name: name, Kind: SignalInput, Index: i, Slot: slot, Mask: t.Masks[slot]})
	}
	for i, name := range t.OutputNames {
		slot := t.OutputSlots[i]
		add(Signal{Name: name, Kind: SignalOutput, Index: i, Slot: slot, Mask: t.Masks[slot]})
	}
	for i, name := range t.RegNames {
		r := t.RegSlots[i]
		add(Signal{Name: name, Kind: SignalRegister, Index: i, Slot: r.Q, Mask: r.Mask})
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return SignalMap{byName: m, names: names}
}

// Resolve looks a signal up by name.
func (sm SignalMap) Resolve(name string) (Signal, bool) {
	s, ok := sm.byName[name]
	return s, ok
}

// Names lists every resolvable signal name, sorted.
func (sm SignalMap) Names() []string {
	return append([]string(nil), sm.names...)
}

// Len reports the number of resolvable signals.
func (sm SignalMap) Len() int { return len(sm.byName) }
