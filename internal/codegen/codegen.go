// Package codegen lowers each simulator — the seven RTeAAL kernels and the
// two baselines — onto an abstract binary: a text segment whose size follows
// the paper's measured code volumes, a data segment holding the tensor
// metadata under its TeAAL format, and a per-cycle reference stream replayed
// by the performance model.
//
// The reference stream uses the engines' real data structures: metadata
// loads walk the actual coordinate arrays at their laid-out addresses, and
// LI accesses use the operations' actual operand coordinates, so cache
// locality and capacity effects are genuine. Dynamic instruction counts per
// operation are calibrated to Table 5 (the paper's Xeon measurements of the
// clang-generated kernels), with the surplus over the explicit memory
// operations modelled as register/stack work that always hits L1.
//
// The same structures feed the clang compile-cost model (time and peak
// memory, calibrated to Table 7 and Figures 8/15).
package codegen

import (
	"fmt"

	"rteaal/internal/baseline"
	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
)

// EventSink receives one simulated cycle's reference stream.
type EventSink interface {
	// Fetch streams sequential instruction fetch over [addr, addr+bytes).
	Fetch(addr uint64, bytes int64)
	// Load and Store touch data addresses.
	Load(addr uint64)
	// LoadSeq is a load belonging to a sequential stream (tensor metadata):
	// it still occupies cache space and counts as a load, but the stride
	// prefetcher hides nearly all of its latency (§7.2).
	LoadSeq(addr uint64)
	Store(addr uint64)
	// Branch reports a conditional branch outcome at a site.
	Branch(pc uint64, taken bool)
	// Exec accounts n instructions that never miss (register/ALU work and
	// L1-resident stack traffic).
	Exec(n float64)
	// HotLoad accounts n loads guaranteed to hit L1 (stack/locals).
	HotLoad(n float64)
}

// Program is one lowered simulator binary plus its replayable cycle stream.
type Program struct {
	Name      string
	Design    string
	TextBytes int64
	// FullTextBytes is the text size of the full-scale design's binary
	// (TextBytes describes the scaled build the stream replays).
	FullTextBytes int64
	DataBytes     int64
	// InstPerCycle is the calibrated dynamic instruction count per
	// simulated cycle (total, including memory operations).
	InstPerCycle float64
	// FetchDiscount scales instruction-miss penalties: clang-optimised
	// straight-line binaries (the baselines) stream near-perfectly through
	// next-line prefetchers, while the generated kernels pay closer to the
	// full latency (calibrated to Table 5/6 vs Figures 18/20).
	FetchDiscount float64
	// Stream replays one simulated circuit-cycle of references.
	Stream func(sink EventSink)
	// Scale is the design synthesis scale (1 = full size); the perf model
	// scales caches to match and extrapolates reported totals.
	Scale int
}

// Memory map of the abstract binary.
const (
	codeBase  = 0x0040_0000
	liBase    = 0x1000_0000
	stackBase = 0x7fff_0000
)

// Per-operation calibration (clang -O3 on Xeon, Table 5/6). The RU..TI
// instruction counts reproduce 26.9T..0.476T dynamic instructions for the
// 8-core RocketChip's 540K-cycle dhrystone run; loads reproduce Table 6's
// L1D load column.
var instPerOp = map[string]float64{
	"RU": 358, "OU": 37, "NU": 17.7, "PSU": 16.5, "IU": 17.4, "SU": 7.2, "TI": 6.3,
	"verilator": 12, "essent": 8.9,
}

// fetchDiscount per simulator; see Program.FetchDiscount.
var fetchDiscount = map[string]float64{"verilator": 0.30, "essent": 0.12}

var loadsPerOp = map[string]float64{
	"RU": 109, "OU": 12.1, "NU": 8.25, "PSU": 8.26, "IU": 8.65, "SU": 3.2, "TI": 2.6,
	"verilator": 4.2, "essent": 2.6,
}

// Code volume per fully unrolled operation (bytes), matching Table 4's
// binary sizes and §7.5's Verilator/ESSENT binaries.
var bytesPerOp = map[string]float64{
	"SU": 41, "TI": 36, "verilator": 62, "essent": 38,
}

// Rolled-kernel text sizes (bytes beyond the fixed runtime), matching
// Table 4: RU/OU/NU/PSU stay ~0.34-0.35 MB total.
const (
	runtimeBytes   = 300 << 10 // fixed runtime + libc footprint
	ruLoopBytes    = 640
	ouLoopBytes    = 1400
	nuGroupBytes   = 160 // per operation-kind loop body
	psuGroupBytes  = 550
	iuSegmentBytes = 1100 // per (layer, type) compiled segment
)

// KernelProgram lowers one RTeAAL kernel configuration for a design.
func KernelProgram(t *oim.Tensor, kind kernel.Kind, scale int) (*Program, error) {
	if scale < 1 {
		scale = 1
	}
	name := kind.String()
	ops := float64(t.TotalOps())
	p := &Program{
		Name:          name,
		Design:        t.Design,
		Scale:         scale,
		InstPerCycle:  instPerOp[name] * ops,
		FetchDiscount: 1.0,
	}

	// The streams replay the tensor through two derived views: the
	// [I,S,N,O,R] arrays (one entry per operation) and the per-(layer,
	// type) counts of the swizzled order.
	opt := t.Lower(true)
	npayload := t.NPayload()
	numSigs := len(t.OpTable)
	sc := int64(scale) // code bodies are design-size-independent, so the
	// replayed (scaled-cache) build shrinks them to preserve ratios

	// Generated loop bodies are per operation *kind*: signatures that
	// differ only in mux-chain arity share code.
	bodyIdx := make([]uint64, numSigs)
	kindSeen := map[uint8]uint64{}
	for i, sig := range t.OpTable {
		idx, ok := kindSeen[uint8(sig.Op)]
		if !ok {
			idx = uint64(len(kindSeen))
			kindSeen[uint8(sig.Op)] = idx
		}
		bodyIdx[i] = idx
	}
	numBodies := int64(len(kindSeen))

	// Data-segment layout after LI and LO.
	liBytes := int64(t.NumSlots) * 8
	loBytes := int64(t.MaxLayerOps()) * 8
	metaBase := uint64(liBase) + uint64(liBytes+loBytes)
	sBase := metaBase                           // SCoord: 4B entries
	nBase := sBase + uint64(4*len(opt.SCoord))  // NCoord: 2B
	rBase := nBase + uint64(2*len(opt.NCoord))  // RCoord: 4B
	npBase := rBase + uint64(4*len(opt.RCoord)) // swizzled NPayload: 4B
	metaEnd := npBase + uint64(4*len(npayload))

	// replay emits count operations of one type reading the R coordinate
	// stream at ri, results staged in LO; writeBack emits the pass that
	// copies operations [from, to) of a layer from LO to their S coordinates.
	replay := func(sink EventSink, count, arity, ri int) int {
		for k := 0; k < count; k++ {
			for o := 0; o < arity; o++ {
				sink.LoadSeq(rBase + uint64(4*ri))
				sink.Load(uint64(liBase) + uint64(opt.RCoord[ri])*8)
				ri++
			}
			sink.Store(uint64(liBase) + uint64(liBytes) + uint64(8*k))
		}
		return ri
	}
	writeBack := func(sink EventSink, from, to int) {
		for k := from; k < to; k++ {
			sink.LoadSeq(sBase + uint64(4*k))
			sink.Store(uint64(liBase) + uint64(opt.SCoord[k])*8)
		}
	}

	switch kind {
	case kernel.RU, kernel.OU:
		p.DataBytes = liBytes + loBytes + int64(metaEnd-metaBase)
		body := int64(ruLoopBytes)
		if kind == kernel.OU {
			body = ouLoopBytes
		}
		p.TextBytes = runtimeBytes + body
		p.FullTextBytes = p.TextBytes
		fetchBody := max(body/sc, 16)
		padLoads := loadsPerOp[name] - 5.2 // explicit loads emitted below
		p.Stream = func(sink EventSink) {
			k, r := 0, 0
			for _, n := range opt.IPayload {
				sink.Fetch(codeBase, fetchBody) // loop body stays resident
				base := k
				for s := 0; s < int(n); s++ {
					sink.LoadSeq(nBase + uint64(2*k))
					sink.LoadSeq(sBase + uint64(4*k))
					for end := r + int(t.OpTable[opt.NCoord[k]].Arity); r < end; r++ {
						sink.LoadSeq(rBase + uint64(4*r))
						sink.Load(uint64(liBase) + uint64(opt.RCoord[r])*8)
					}
					sink.Store(uint64(liBase) + uint64(liBytes) + uint64(8*s))
					k++
				}
				writeBack(sink, base, k)
				sink.Branch(codeBase+1, true) // layer back-edge
			}
			sink.HotLoad(padLoads * ops)
			sink.Exec(p.InstPerCycle - padLoads*ops - 5.2*ops)
		}
	case kernel.NU, kernel.PSU:
		p.DataBytes = liBytes + loBytes + int64(4*len(opt.SCoord)+4*len(opt.RCoord)+4*len(npayload))
		group := int64(nuGroupBytes)
		if kind == kernel.PSU {
			group = psuGroupBytes
		}
		p.TextBytes = runtimeBytes + numBodies*group
		p.FullTextBytes = p.TextBytes
		fetchGroup := max(group/sc, 16)
		padLoads := loadsPerOp[name] - 4.1
		p.Stream = func(sink EventSink) {
			ri, base := 0, 0
			for i, n := range opt.IPayload {
				for sig := 0; sig < numSigs; sig++ {
					sink.LoadSeq(npBase + uint64(4*(i*numSigs+sig)))
					count := int(npayload[i*numSigs+sig])
					if count == 0 {
						continue
					}
					sink.Fetch(codeBase+bodyIdx[sig]*uint64(fetchGroup), fetchGroup)
					ri = replay(sink, count, int(t.OpTable[sig].Arity), ri)
					sink.Branch(codeBase+uint64(sig), true)
				}
				writeBack(sink, base, base+int(n))
				base += int(n)
			}
			sink.HotLoad(padLoads * ops)
			sink.Exec(p.InstPerCycle - padLoads*ops - 4.1*ops)
		}
	case kernel.IU:
		segments := int64(0)
		for _, count := range npayload {
			if count != 0 {
				segments++
			}
		}
		p.DataBytes = liBytes + loBytes + int64(4*len(opt.SCoord)+4*len(opt.RCoord))
		p.TextBytes = runtimeBytes + segments*iuSegmentBytes
		p.FullTextBytes = p.TextBytes
		segFetch := max(int64(iuSegmentBytes)/sc, 16)
		padLoads := loadsPerOp["IU"] - 4.1
		p.Stream = func(sink EventSink) {
			ri, base := 0, 0
			var seg uint64
			for i, n := range opt.IPayload {
				for sig := 0; sig < numSigs; sig++ {
					count := int(npayload[i*numSigs+sig])
					if count == 0 {
						continue
					}
					sink.Fetch(codeBase+seg*uint64(segFetch), segFetch)
					seg++
					ri = replay(sink, count, int(t.OpTable[sig].Arity), ri)
				}
				writeBack(sink, base, base+int(n))
				base += int(n)
			}
			sink.HotLoad(padLoads * ops)
			sink.Exec(p.InstPerCycle - padLoads*ops - 4.1*ops)
		}
	case kernel.SU, kernel.TI:
		perOp := bytesPerOp[name]
		p.TextBytes = runtimeBytes + int64(perOp*ops)
		p.FullTextBytes = runtimeBytes + int64(perOp*ops)*sc
		p.DataBytes = liBytes + loBytes // OIM fully in the binary
		padLoads := loadsPerOp[name] - 2.2
		direct := kind == kernel.TI
		p.Stream = func(sink EventSink) {
			var pc uint64 = codeBase
			k, r := 0, 0
			for _, n := range opt.IPayload {
				base := k
				for s := 0; s < int(n); s++ {
					sink.Fetch(pc, int64(perOp))
					pc += uint64(perOp)
					for end := r + int(t.OpTable[opt.NCoord[k]].Arity); r < end; r++ {
						sink.Load(uint64(liBase) + uint64(opt.RCoord[r])*8)
					}
					if direct {
						sink.Store(uint64(liBase) + uint64(opt.SCoord[k])*8)
					} else {
						sink.Store(uint64(liBase) + uint64(liBytes) + uint64(8*s))
					}
					k++
				}
				if !direct { // SU keeps the unrolled write-back
					for _, out := range opt.SCoord[base:k] {
						sink.Fetch(pc, 8)
						pc += 8
						sink.Store(uint64(liBase) + uint64(out)*8)
					}
				}
			}
			sink.HotLoad(padLoads * ops)
			sink.Exec(p.InstPerCycle - padLoads*ops - 2.2*ops)
		}
	default:
		return nil, fmt.Errorf("codegen: unknown kernel %v", kind)
	}
	return p, nil
}

// BaselineProgram lowers a Verilator- or ESSENT-style simulator.
func BaselineProgram(g *dfg.Graph, style baseline.Style, scale int) (*Program, error) {
	if scale < 1 {
		scale = 1
	}
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	name := style.String()
	ops := float64(len(topo))
	perOp := bytesPerOp[name]
	p := &Program{
		Name:          name,
		Design:        g.Name,
		Scale:         scale,
		TextBytes:     runtimeBytes + int64(perOp*ops),
		FullTextBytes: runtimeBytes + int64(perOp*ops)*int64(scale),
		DataBytes:     int64(len(g.Nodes)) * 8,
		InstPerCycle:  instPerOp[name] * ops,
		FetchDiscount: fetchDiscount[name],
	}
	// Pre-extract the reference pattern: operand node ids and per-site
	// branch biases (Verilator's generated code branches on mux selectors;
	// dhrystone-like control is strongly but not perfectly biased).
	type opRef struct {
		args   []int32
		branch bool
		bias   uint32 // taken probability in 1/256ths
	}
	refs := make([]opRef, 0, len(topo))
	h := uint32(0x9e3779b9)
	for _, id := range topo {
		n := g.Node(id)
		r := opRef{args: make([]int32, len(n.Args))}
		for i, a := range n.Args {
			r.args[i] = int32(a)
		}
		if style == baseline.Verilator && len(n.Args) >= 3 {
			r.branch = true
			h = h*1664525 + 1013904223
			r.bias = 16 + h%96 // 6%..44% taken
		}
		refs = append(refs, r)
	}
	padLoads := loadsPerOp[name] - 2.3
	var rngState uint32 = 0x2545F491
	p.Stream = func(sink EventSink) {
		var pc uint64 = codeBase
		for i := range refs {
			sink.Fetch(pc, int64(perOp))
			pc += uint64(perOp)
			for _, a := range refs[i].args {
				sink.Load(uint64(liBase) + uint64(a)*8)
			}
			sink.Store(uint64(liBase) + uint64(i)*8)
			if refs[i].branch {
				rngState = rngState*1664525 + 1013904223
				taken := (rngState>>8)%256 < refs[i].bias
				sink.Branch(pc, taken)
			}
		}
		sink.HotLoad(padLoads * ops)
		sink.Exec(p.InstPerCycle - padLoads*ops - 2.3*ops)
	}
	return p, nil
}
