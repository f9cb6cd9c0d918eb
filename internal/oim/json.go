package oim

import (
	"encoding/json"
	"io"
)

// JSON serialisation of the OIM tensor, mirroring the compiler pipeline of
// Figure 14 where the generated tensors are stored in JSON files. Here the
// compiler and the kernels share one process, so the tensor is only ever
// written (cmd/rteaal -dump-oim), never read back.

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

// WriteJSON serialises the tensor. A tensor that fails Validate is refused
// and nothing is written, so a dumped OIM is always a well-formed one.
func (t *Tensor) WriteJSON(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
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
