package oim

import "rteaal/internal/dfg"

// Compile runs the middle of Figure 14's compiler, the one place it is
// written: the default dfg passes (which keep every register),
// levelization, and [Build]. It returns the tensor and the optimised graph
// it was built from; g is not modified.
func Compile(g *dfg.Graph) (*Tensor, *dfg.Graph, error) {
	opt, err := dfg.Optimize(g, dfg.DefaultOptOptions())
	if err != nil {
		return nil, nil, err
	}
	lv, err := dfg.Levelize(opt)
	if err != nil {
		return nil, nil, err
	}
	t, err := Build(lv)
	if err != nil {
		return nil, nil, err
	}
	return t, opt, nil
}
