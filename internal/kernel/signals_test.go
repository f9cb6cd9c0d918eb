package kernel

import (
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// TestSignalMapResolution checks class coverage, slot/mask correctness, and
// the input > output > register shadowing rule for colliding names.
func TestSignalMapResolution(t *testing.T) {
	g := &dfg.Graph{Name: "sig"}
	in := g.AddInput("a", 4)   // "a" is an input AND an output name
	r := g.AddReg("acc", 8, 0) // "acc" is a register AND an output name
	g.SetRegNext(r, g.AddOp(wire.Xor, 8, r, g.AddOp(wire.Ident, 8, in)))
	g.AddOutput("a", in)
	g.AddOutput("acc", r)
	g.AddOutput("y", r)
	ten := buildTensor(t, g)

	p, err := NewProgram(ten, Config{Kind: TI})
	if err != nil {
		t.Fatal(err)
	}
	sm := NewSignalMap(p.Tensor())
	a, ok := sm.Resolve("a")
	if !ok || a.Kind != SignalInput || a.Index != 0 {
		t.Fatalf("a resolved as %+v (input must shadow output)", a)
	}
	if a.Slot != ten.InputSlots[0] {
		t.Fatalf("a slot wrong: %+v", a)
	}
	acc, ok := sm.Resolve("acc")
	if !ok || acc.Kind != SignalOutput {
		t.Fatalf("acc resolved as %+v (output must shadow register)", acc)
	}
	y, ok := sm.Resolve("y")
	if !ok || y.Kind != SignalOutput || y.Slot != ten.RegSlots[0].Q {
		t.Fatalf("y resolved as %+v", y)
	}
	if _, ok := sm.Resolve("nope"); ok {
		t.Fatal("unknown name resolved")
	}

	names := sm.Names()
	want := []string{"a", "acc", "y"} // sorted
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}

	// A class lookup sees through the shadowing: Session and Batch Poke and
	// Peek by name go to the port of that class whatever else shares its name.
	if out, ok := sm.ResolveKind("a", SignalOutput); !ok || out.Kind != SignalOutput || out.Index != 0 || out.Slot != a.Slot {
		t.Fatalf("output a resolved as %+v, %v", out, ok)
	}
	if reg, ok := sm.ResolveKind("acc", SignalRegister); !ok || reg.Kind != SignalRegister || reg.Slot != ten.RegSlots[0].Q {
		t.Fatalf("register acc resolved as %+v, %v", reg, ok)
	}
	for _, miss := range []struct {
		name string
		kind SignalKind
	}{{"y", SignalInput}, {"y", SignalRegister}, {"a", SignalRegister}, {"nope", SignalOutput}} {
		if s, ok := sm.ResolveKind(miss.name, miss.kind); ok {
			t.Fatalf("%v %q resolved as %+v", miss.kind, miss.name, s)
		}
	}
}

// TestSignalMapRegisters checks registers resolve to their Q coordinate
// with the commit mask.
func TestSignalMapRegisters(t *testing.T) {
	g := &dfg.Graph{Name: "regs"}
	in := g.AddInput("x", 6)
	r0 := g.AddReg("state_a", 6, 1)
	r1 := g.AddReg("state_b", 3, 2)
	g.SetRegNext(r0, in)
	g.SetRegNext(r1, g.AddOp(wire.Bits, 3, in, g.AddConst(2, 7), g.AddConst(0, 7)))
	g.AddOutput("o", r0)
	ten := buildTensor(t, g)
	sm := NewSignalMap(ten)

	for i, name := range []string{"state_a", "state_b"} {
		s, ok := sm.Resolve(name)
		if !ok || s.Kind != SignalRegister || s.Index != i {
			t.Fatalf("%s resolved as %+v", name, s)
		}
		if s.Slot != ten.RegSlots[i].Q {
			t.Fatalf("%s slot wrong: %+v vs %+v", name, s, ten.RegSlots[i])
		}
	}
}
