package oim

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"rteaal/internal/dfg"
	"rteaal/internal/wire"
)

// JSON serialisation of the OIM tensor, mirroring the compiler pipeline of
// Figure 14 where the generated tensors are stored in JSON files and loaded
// by the kernel executable at runtime.

type jsonOp struct {
	Sig  uint16  `json:"n"`
	Out  int32   `json:"s"`
	Args []int32 `json:"r"`
}

type jsonSig struct {
	Op    uint8 `json:"op"`
	Arity uint8 `json:"arity"`
}

type jsonRegSlot struct {
	Q    int32  `json:"q"`
	Next int32  `json:"next"`
	Init uint64 `json:"init"`
	Mask uint64 `json:"mask"`
}

type jsonSlotInit struct {
	Slot  int32  `json:"slot"`
	Value uint64 `json:"value"`
}

type jsonTensor struct {
	Design       string         `json:"design"`
	NumSlots     int            `json:"num_slots"`
	OpTable      []jsonSig      `json:"op_table"`
	Layers       [][]jsonOp     `json:"layers"`
	Masks        []uint64       `json:"masks"`
	ConstSlots   []jsonSlotInit `json:"const_slots"`
	RegSlots     []jsonRegSlot  `json:"reg_slots"`
	InputSlots   []int32        `json:"input_slots"`
	OutputSlots  []int32        `json:"output_slots"`
	InputNames   []string       `json:"input_names"`
	OutputNames  []string       `json:"output_names"`
	RegNames     []string       `json:"reg_names,omitempty"`
	EffectualOps int64          `json:"effectual_ops"`
	IdentityOps  int64          `json:"identity_ops"`
}

// WriteJSON serialises the tensor.
func (t *Tensor) WriteJSON(w io.Writer) error {
	jt := jsonTensor{
		Design:       t.Design,
		NumSlots:     t.NumSlots,
		Masks:        t.Masks,
		InputSlots:   t.InputSlots,
		OutputSlots:  t.OutputSlots,
		InputNames:   t.InputNames,
		OutputNames:  t.OutputNames,
		RegNames:     t.RegNames,
		EffectualOps: t.EffectualOps,
		IdentityOps:  t.IdentityOps,
	}
	for _, s := range t.OpTable {
		jt.OpTable = append(jt.OpTable, jsonSig{Op: uint8(s.Op), Arity: s.Arity})
	}
	t.Ops(func(layer int, sig uint16, out int32, args []int32) {
		for len(jt.Layers) <= layer {
			jt.Layers = append(jt.Layers, []jsonOp{})
		}
		jt.Layers[layer] = append(jt.Layers[layer], jsonOp{Sig: sig, Out: out, Args: args})
	})
	for _, c := range t.ConstSlots {
		jt.ConstSlots = append(jt.ConstSlots, jsonSlotInit{Slot: c.Slot, Value: c.Value})
	}
	for _, r := range t.RegSlots {
		jt.RegSlots = append(jt.RegSlots, jsonRegSlot{Q: r.Q, Next: r.Next, Init: r.Init, Mask: r.Mask})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jt)
}

// ReadJSON deserialises a tensor written by WriteJSON — or by hand: a layer
// whose operations are not grouped by type is regrouped, stably — and
// returns it only if it passes [Tensor.Validate].
func ReadJSON(r io.Reader) (*Tensor, error) {
	var jt jsonTensor
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("oim: decode: %w", err)
	}
	t := &Tensor{
		Design:       jt.Design,
		NumSlots:     jt.NumSlots,
		Masks:        jt.Masks,
		InputSlots:   jt.InputSlots,
		OutputSlots:  jt.OutputSlots,
		InputNames:   jt.InputNames,
		OutputNames:  jt.OutputNames,
		RegNames:     jt.RegNames,
		EffectualOps: jt.EffectualOps,
		IdentityOps:  jt.IdentityOps,
	}
	for _, s := range jt.OpTable {
		t.OpTable = append(t.OpTable, OpSig{Op: wire.Op(s.Op), Arity: s.Arity})
	}
	for li, jl := range jt.Layers {
		slices.SortStableFunc(jl, func(a, b jsonOp) int { return int(a.Sig) - int(b.Sig) })
		for _, op := range jl {
			if int(op.Sig) >= len(t.OpTable) {
				return nil, fmt.Errorf("oim: layer %d: sig %d out of range", li, op.Sig)
			}
			if int(t.OpTable[op.Sig].Arity) != len(op.Args) {
				return nil, fmt.Errorf("oim: layer %d: arity mismatch for s=%d", li, op.Out)
			}
			t.push(op.Sig, op.Out)
			t.RCoord = append(t.RCoord, op.Args...)
		}
		t.endLayer()
	}
	for _, c := range jt.ConstSlots {
		t.ConstSlots = append(t.ConstSlots, dfg.SlotInit{Slot: c.Slot, Value: c.Value})
	}
	for _, r := range jt.RegSlots {
		t.RegSlots = append(t.RegSlots, dfg.RegSlot{Q: r.Q, Next: r.Next, Init: r.Init, Mask: r.Mask})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
