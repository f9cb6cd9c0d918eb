package main

import (
	"fmt"
	"time"

	"rteaal/internal/dfg"
	"rteaal/sim"
)

// engine is an in-process workload after set-up: one sim.Session or one
// sim.Batch, driven through the same public calls a user makes.
type engine struct {
	w               *workload
	design          *sim.Design
	sess            *sim.Session // scalarSession, partitionedSession
	batch           *sim.Batch   // batchEngine
	tb              *sim.Testbench
	stim            sim.Stimulus
	inputs, outputs int
}

// compileOptions are the sim options a workload's design is compiled with.
func (w *workload) compileOptions() []sim.Option {
	if w.kind == partitionedSession {
		return []sim.Option{sim.WithPartitions(w.workers())}
	}
	return nil
}

func setUpEngine(w *workload, in *inputs, seed int64) (runner, error) {
	d, err := sim.Compile(in.src, w.compileOptions()...)
	if err != nil {
		return nil, err
	}
	e := &engine{w: w, design: d, stim: sim.RandomStimulus(seed), inputs: len(d.Inputs()), outputs: len(d.Outputs())}
	if w.kind == batchEngine {
		if e.batch, err = d.NewBatchParallel(w.lanes, w.workers()); err != nil {
			return nil, err
		}
		e.tb = e.batch.Testbench()
	} else {
		e.sess = d.NewSession()
		e.tb = e.sess.Testbench()
	}
	if !w.hold {
		e.tb.Drive(e.stim)
	}
	return e, nil
}

func (e *engine) close() {
	if e.batch != nil {
		e.batch.Close()
	} else {
		e.sess.Close()
	}
}

func (e *engine) reset() {
	if e.batch != nil {
		e.batch.Reset()
	} else {
		e.sess.Reset()
	}
}

func (e *engine) peek(lane, output int) uint64 {
	if e.batch != nil {
		return e.batch.PeekIndex(lane, output)
	}
	return e.sess.PeekIndex(output)
}

// advance runs n cycles the way the workload's user does. A holding workload
// re-pokes every input of every lane at each chunk boundary and runs the bare
// batch; the others let the testbench drive dense stimulus.
func (e *engine) advance(n int64) error {
	if !e.w.hold {
		return e.tb.Run(n)
	}
	if c := e.batch.Cycle(); c%e.w.chunk == 0 {
		for l := 0; l < e.w.lanes; l++ {
			for i := 0; i < e.inputs; i++ {
				e.batch.PokeIndex(l, i, e.stim.Value(c, l, i))
			}
		}
	}
	e.batch.Run(n)
	return nil
}

func (e *engine) window(tr *tracer, parent int) (windowResult, error) {
	e.reset()
	win := tr.begin("window", parent)
	defer tr.end(win)
	d := newDigest()
	wr := windowResult{work: float64(e.w.windowWork() * int64(e.w.lanes))}
	for c := int64(0); c < e.w.windowChunks; c++ {
		op := tr.begin("sim.run", win)
		start := time.Now()
		err := e.advance(e.w.chunk)
		took := time.Since(start)
		tr.end(op)
		if err != nil {
			return wr, err
		}
		wr.wall += took
		wr.ops = append(wr.ops, took.Seconds()*1e3)
		for l := 0; l < e.w.lanes; l++ {
			for o := 0; o < e.outputs; o++ {
				d.fold(e.peek(l, o))
			}
		}
	}
	wr.digest = d.String()
	return wr, nil
}

// check replays the first cycles one at a time through the same entry point
// as the timed run, and on dfg.Interp over the generator's unoptimised
// graph with the same stimulus values — a model that shares no code with the
// FIRRTL frontend, the optimiser, the OIM or any kernel. Every output of
// lane 0 and of the last lane is compared every cycle.
func (e *engine) check(in *inputs, refCycles int) (compared, differed int64, err error) {
	lanes := []int{0}
	if e.w.lanes > 1 {
		lanes = append(lanes, e.w.lanes-1)
	}
	refIn, err := indexByName(e.design.Inputs(), portNames(in.graph.Inputs))
	if err != nil {
		return 0, 0, err
	}
	refOut, err := indexByName(e.design.Outputs(), portNames(in.graph.Outputs))
	if err != nil {
		return 0, 0, err
	}
	refs := make([]*dfg.Interp, len(lanes))
	for i := range refs {
		if refs[i], err = dfg.NewInterp(in.graph); err != nil {
			return 0, 0, err
		}
	}
	e.reset()
	for c := int64(0); c < int64(refCycles); c++ {
		if err := e.advance(1); err != nil {
			return compared, differed, err
		}
		for r, lane := range lanes {
			if !e.w.hold || c%e.w.chunk == 0 {
				for i, ri := range refIn {
					refs[r].PokeInput(ri, e.stim.Value(c, lane, i))
				}
			}
			refs[r].Step()
			for o, ro := range refOut {
				compared++
				if e.peek(lane, o) != refs[r].PeekOutput(ro) {
					differed++
				}
			}
		}
	}
	return compared, differed, nil
}

func portNames(ports []dfg.Port) []string {
	names := make([]string, len(ports))
	for i, p := range ports {
		names[i] = p.Name
	}
	return names
}

// indexByName maps each name of from to its position in to; the compiled
// design and the generator's graph list the same ports, but nothing promises
// the same order.
func indexByName(from, to []string) ([]int, error) {
	pos := make(map[string]int, len(to))
	for i, n := range to {
		pos[n] = i
	}
	idx := make([]int, len(from))
	for i, n := range from {
		p, ok := pos[n]
		if !ok {
			return nil, fmt.Errorf("port %q of the compiled design is not in the generated graph", n)
		}
		idx[i] = p
	}
	return idx, nil
}
