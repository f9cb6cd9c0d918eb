package sim

import "rteaal/internal/kernel"

// NewWideBatch mints an n-lane batch of d over the wide schedule — every
// slot a lane vector, nothing bit-packed — on the design's worker count:
// the layout a batch runs when packing leaves no slot packed, and the wide
// side of the layout-parity tests.
func NewWideBatch(d *Design, n int) (*Batch, error) {
	prog, err := d.fullProgram()
	if err != nil {
		return nil, err
	}
	b, err := prog.InstantiateBatchWith(n, kernel.BatchOptions{Workers: d.cfg.batchWorkers})
	if err != nil {
		return nil, err
	}
	return &Batch{d: d, b: b}, nil
}
