package kernel

import (
	"fmt"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// TestEveryOpEveryEngine is the directed complement of the random-graph
// properties, which reach an operation's corners by luck: every wire.Op, at
// result widths 1, 8, 63 and 64 over operands 1, 4 and 64 bits wide, as a
// one-operation design (and as nine copies in one layer: a run long enough
// for PSU/IU's 8x bodies plus a remainder) on every engine this package
// builds — the seven kinds (RU and OU in both formats), the wide batch, the
// packed batch and the StepReference oracle on both — over the cross product of
// boundary operands (0, 1, mask-1, mask, 63, 64, 65, all ones: shift amounts
// at and past 64, a zero divisor, bits with hi < lo and with lo >= 64), each
// result compared with wire.Eval. The operand widths steer the schedule
// compiler: 64-bit operands force the masked wide bodies, 4-bit ones let
// fitsMask prove the unmasked twins, and an all-1-bit row compiles to the
// word-wide packed body where the operation has one — so every hand-written
// loop body in the package is held to the spec by a test inside it.
func TestEveryOpEveryEngine(t *testing.T) {
	for op := wire.Op(0); op < wire.NumOps; op++ {
		arities := []int{wire.Arity(op)}
		if op == wire.MuxChain {
			arities = []int{1, 3, 5} // inline short chains and a spilled one
		}
		for _, arity := range arities {
			for _, w := range []int{1, 8, 63, 64} {
				for _, opw := range []int{1, 4, 64} {
					checkOneOpDesign(t, op, arity, w, opw, 1)
					checkOneOpDesign(t, op, arity, w, opw, 9)
				}
			}
		}
	}
}

func checkOneOpDesign(t *testing.T, op wire.Op, arity, w, opw, copies int) {
	t.Helper()
	g := &dfg.Graph{Name: "op"}
	args := make([]dfg.NodeID, arity)
	for i := range args {
		args[i] = g.AddInput(fmt.Sprintf("a%d", i), opw)
	}
	for c := 0; c < copies; c++ {
		g.AddOutput(fmt.Sprintf("y%d", c), g.AddOp(op, w, args...))
	}
	ten := buildTensor(t, g)
	if ten.TotalOps() != copies || ten.NumLayers() != 1 {
		t.Fatalf("%v: lowered to %d operations in %d layers, want %d in 1", op, ten.TotalOps(), ten.NumLayers(), copies)
	}

	mask, opMask := wire.Mask(w), wire.Mask(opw)
	vals := []uint64{0, 1, mask - 1, mask, 63, 64, 65, ^uint64(0)}
	if arity > 3 {
		vals = []uint64{0, 1, mask}
	}
	// tuples is vals^arity, poked raw; want is the spec over the operands
	// as the engines see them, masked to the input width.
	tuples := [][]uint64{nil}
	for o := 0; o < arity; o++ {
		var next [][]uint64
		for _, tu := range tuples {
			for _, v := range vals {
				next = append(next, append(tu[:len(tu):len(tu)], v))
			}
		}
		tuples = next
	}
	want := make([]uint64, len(tuples))
	seen := make([]uint64, arity)
	for i, tu := range tuples {
		for o, v := range tu {
			seen[o] = v & opMask
		}
		want[i] = wire.Eval(op, seen, mask)
	}
	fail := func(engine string, i int, got uint64) {
		t.Helper()
		t.Fatalf("%v/%d x%d at width %d over %d-bit operands on %s: operands %#x give %#x, wire.Eval %#x",
			op, arity, copies, w, opw, engine, tuples[i], got, want[i])
	}

	for _, cfg := range allConfigs() {
		e, err := New(ten, cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := e.Name()
		for i, tu := range tuples {
			for o, v := range tu {
				e.PokeInput(o, v)
			}
			e.Step()
			for c := 0; c < copies; c++ {
				if got := e.PeekOutput(c); got != want[i] {
					fail(name, i, got)
				}
			}
		}
	}

	const lanes = 70 // one full packed word and a partial one
	wide, ref := wideBatch(t, ten, lanes), wideBatch(t, ten, lanes)
	packed, packedRef := packedBatch(t, ten, lanes, 1), packedBatch(t, ten, lanes, 1)
	if allOneBit := w == 1 && opw == 1; packed.Packed() != (allOneBit && opBodies[op].word != 0) {
		t.Fatalf("%v/%d x%d at width %d over %d-bit operands: Packed() = %v", op, arity, copies, w, opw, packed.Packed())
	}
	for _, b := range []struct {
		name string
		b    *Batch
		step func()
	}{
		{"batch/wide", wide, wide.Step},
		{"batch/packed", packed, packed.Step},
		{"batch/StepReference", ref, ref.StepReference},
		{"batch/packed/StepReference", packedRef, packedRef.StepReference},
	} {
		for base := 0; base < len(tuples); base += lanes {
			chunk := tuples[base:min(base+lanes, len(tuples))]
			for l, tu := range chunk {
				for o, v := range tu {
					b.b.PokeInput(l, o, v)
				}
			}
			b.step()
			for l := range chunk {
				for c := 0; c < copies; c++ {
					if got := b.b.PeekOutput(l, c); got != want[base+l] {
						fail(b.name, base+l, got)
					}
				}
			}
		}
	}
}
