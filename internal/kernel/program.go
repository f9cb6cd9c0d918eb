package kernel

import (
	"fmt"
	"sync"

	"rteaal/internal/oim"
)

// Program is the immutable, shareable half of a kernel: the OIM tensor plus
// whatever the selected configuration derives from it to consult at runtime
// (the coordinate arrays for RU/OU, the SU/TI tape; NU, PSU and IU walk the
// tensor's own arrays, NU and PSU with its (layer, type) counts). Building a
// Program does all the per-design work once; Instantiate then mints any
// number of independent engines whose mutable state (the LI values, staged
// register commits, sampled outputs, and — for the kernels that keep one —
// the LO buffer) is private per engine. This is what lets one compiled
// design serve many concurrent simulation sessions without recompiling or
// racing.
type Program struct {
	t   *oim.Tensor
	cfg Config

	arrays    *oim.Arrays // RU, OU
	npayload  []int32     // NU, PSU
	tape      []tapeOp    // SU, TI
	layerEnds []int       // SU (TI ignores them)

	// batchSched is the wide batch-specialised schedule and packSched its
	// bit-packed sibling; each is compiled lazily once per program and
	// shared read-only by every batch instantiated with that layout.
	batchOnce  sync.Once
	batchSched *batchSchedule
	packOnce   sync.Once
	packSched  *batchSchedule
}

// NewProgram lowers t for the configuration and returns the shared program.
func NewProgram(t *oim.Tensor, cfg Config) (*Program, error) {
	if t.NumSlots == 0 {
		return nil, fmt.Errorf("kernel: empty design")
	}
	p := &Program{t: t, cfg: cfg}
	switch cfg.Kind {
	case RU, OU:
		p.arrays = t.Lower()
	case NU, PSU:
		p.npayload = t.NPayload()
	case IU: // walks the tensor's run list and nothing else
	case SU, TI:
		p.tape, p.layerEnds = buildTape(t)
	default:
		return nil, fmt.Errorf("kernel: unknown kind %v", cfg.Kind)
	}
	return p, nil
}

// Kind reports the kernel configuration the program was lowered for.
func (p *Program) Kind() Kind { return p.cfg.Kind }

// Tensor returns the underlying OIM. Callers must treat it as read-only.
func (p *Program) Tensor() *oim.Tensor { return p.t }

// Instantiate creates a fresh engine with its own simulation state over the
// shared read-only program. Engines from one program may be stepped from
// different goroutines concurrently; a single engine may not.
func (p *Program) Instantiate() Engine {
	e := &engine{state: newState(p.t), kind: p.cfg.Kind, a: p.arrays,
		runs: p.t.Runs, rc: p.t.RCoord, npayload: p.npayload, tape: p.tape, layerEnds: p.layerEnds}
	if e.kind == RU || e.kind == OU || e.kind == SU {
		e.lo = make([]uint64, p.t.MaxLayerOps())
	}
	return e
}

// BatchOptions configures batch instantiation beyond the lane count.
type BatchOptions struct {
	// Workers shards lanes over the resident goroutines of one [Workers]
	// group, each running the full schedule on its own contiguous lane
	// block (see [Batch.RunBulk] for when they synchronise). It is clamped
	// to the lane count; 0 or 1 selects the sequential in-caller path.
	// Parallel batches should be released with [Batch.Close].
	Workers int
	// Packing compiles (once per program) and runs the bit-packed
	// schedule: provably-1-bit slots (see OneBitSlots, refined by a
	// profitability pass) are stored one lane per bit and evaluated with
	// word-wide loop bodies, 64 lanes per op. Designs where no 1-bit slot
	// survives the analysis fall back to the wide schedule.
	Packing bool
}

// InstantiateBatchWith mints a lanes-wide [Batch] with explicit options.
// Both schedule layouts are compiled lazily once per program, so mixing
// packed and wide batches of one program stays cheap.
func (p *Program) InstantiateBatchWith(lanes int, o BatchOptions) (*Batch, error) {
	if o.Packing {
		p.packOnce.Do(func() { p.packSched = buildBatchSchedule(p.t, true) })
		return newBatch(p.t, p.packSched, lanes, o.Workers)
	}
	p.batchOnce.Do(func() { p.batchSched = buildBatchSchedule(p.t, false) })
	return newBatch(p.t, p.batchSched, lanes, o.Workers)
}
