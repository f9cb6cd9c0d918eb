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
	if got := sm.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3 (a, acc, y)", got)
	}

	a, ok := sm.Resolve("a")
	if !ok || a.Kind != SignalInput || a.Index != 0 {
		t.Fatalf("a resolved as %+v (input must shadow output)", a)
	}
	if a.Slot != ten.InputSlots[0] || a.Mask != ten.Masks[a.Slot] {
		t.Fatalf("a slot/mask wrong: %+v", a)
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

	// The map is a function of the tensor alone: building it again agrees.
	if sm2 := NewSignalMap(p.Tensor()); sm2.Len() != sm.Len() {
		t.Fatal("NewSignalMap not stable across calls")
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
		if s.Slot != ten.RegSlots[i].Q || s.Mask != ten.RegSlots[i].Mask {
			t.Fatalf("%s slot/mask wrong: %+v vs %+v", name, s, ten.RegSlots[i])
		}
	}
}
