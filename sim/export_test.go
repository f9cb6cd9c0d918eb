package sim

import "rteaal/internal/kernel"

// NewWideBatch is [Design.NewBatchParallel] over the wide schedule — every
// slot a lane vector, nothing bit-packed: the layout a batch runs when
// packing leaves no slot packed, and the wide side of the layout-parity
// tests.
func NewWideBatch(d *Design, n, workers int) (*Batch, error) {
	b, err := d.prog.InstantiateBatchWith(n, kernel.BatchOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &Batch{d: d, b: b}, nil
}
