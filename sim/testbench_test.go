package sim_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rteaal/internal/dfg"
	"rteaal/internal/kernel"
	"rteaal/sim"
)

// dmiSrc is a DMI-style DUT: a one-cycle echo register pair behind a
// valid/ready handshake, plus a free-running tick counter.
const dmiSrc = `
circuit Dmi :
  module Dmi :
    input clock : Clock
    input reset : UInt<1>
    input in_valid : UInt<1>
    input in_data : UInt<16>
    output out_ready : UInt<1>
    output out_data : UInt<16>
    output ticks : UInt<8>
    reg rv : UInt<1>, clock
    reg rd : UInt<16>, clock
    regreset cnt : UInt<8>, clock, reset, UInt<8>(0)
    rv <= in_valid
    rd <= in_data
    cnt <= tail(add(cnt, UInt<1>(1)), 1)
    out_ready <= rv
    out_data <= rd
    ticks <= cnt
`

// dmiScript drives one fixed transaction scenario through a testbench and
// returns the full observation trace: handshake latency, transaction
// responses, and the peek value of every signal port after each phase.
func dmiScript(t *testing.T, tb *sim.Testbench) []uint64 {
	t.Helper()
	var trace []uint64
	ports := map[string]*sim.Port{}
	for _, name := range []string{"in_valid", "in_data", "out_ready", "out_data", "ticks", "rv", "rd", "cnt"} {
		p, err := tb.Port(name)
		if err != nil {
			t.Fatal(err)
		}
		ports[name] = p
	}
	record := func() {
		for _, name := range []string{"in_valid", "in_data", "out_ready", "out_data", "ticks", "rv", "rd", "cnt"} {
			trace = append(trace, ports[name].Peek())
		}
		trace = append(trace, uint64(tb.Cycle()))
	}

	// Phase 1: valid/ready handshake carrying a payload.
	cycles, err := tb.Handshake("in_valid", map[string]uint64{"in_data": 0xA5A5}, "out_ready", 10)
	if err != nil {
		t.Fatal(err)
	}
	trace = append(trace, uint64(cycles))
	record()

	// Phase 2: transact until the echoed payload appears.
	got, err := tb.Transact(map[string]uint64{"in_valid": 1, "in_data": 0x0F0F},
		"out_data", func(v uint64) bool { return v == 0x0F0F }, 10)
	if err != nil {
		t.Fatal(err)
	}
	trace = append(trace, got)
	record()

	// Phase 3: host pokes architectural state directly (a register port)
	// and the next settle must observe it — the routed-poke path.
	ports["cnt"].Poke(200)
	if got := ports["cnt"].Peek(); got != 200 {
		t.Fatalf("cnt after poke = %d", got)
	}
	if err := tb.Step(); err != nil {
		t.Fatal(err)
	}
	record()

	// Phase 4: wait for the counter to reach a later value.
	v, err := ports["ticks"].Wait(func(v uint64) bool { return v >= 203 }, 10)
	if err != nil {
		t.Fatal(err)
	}
	trace = append(trace, v)
	record()
	return trace
}

// TestDMIGoldenTraceAllKernels runs the DMI transaction script over every
// kernel × {1, 3} partitions and asserts every configuration produces the
// bit-identical observation trace.
func TestDMIGoldenTraceAllKernels(t *testing.T) {
	var golden []uint64
	var goldenName string
	for _, k := range sim.Kernels() {
		for _, parts := range []int{1, 3} {
			name := fmt.Sprintf("%v/parts=%d", k, parts)
			opts := []sim.Option{sim.WithKernel(k)}
			if parts > 1 {
				opts = append(opts, sim.WithPartitions(parts))
			}
			d, err := sim.Compile(dmiSrc, opts...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s := d.NewSession()
			trace := dmiScript(t, s.Testbench())
			s.Close()
			if golden == nil {
				golden, goldenName = trace, name
				continue
			}
			if len(trace) != len(golden) {
				t.Fatalf("%s: trace length %d, want %d", name, len(trace), len(golden))
			}
			for i := range golden {
				if trace[i] != golden[i] {
					t.Fatalf("%s diverges from %s at trace[%d]: %d != %d",
						name, goldenName, i, trace[i], golden[i])
				}
			}
		}
	}
}

// TestDMIGoldenTraceBatch runs the same script against batch lanes — fused
// sequential and lane-sharded parallel — and asserts the trace matches the
// scalar session's.
func TestDMIGoldenTraceBatch(t *testing.T) {
	d, err := sim.Compile(dmiSrc)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewSession()
	golden := dmiScript(t, s.Testbench())

	for _, workers := range []int{1, 3} {
		b, err := d.NewBatchParallel(3, workers)
		if err != nil {
			t.Fatal(err)
		}
		trace := dmiScript(t, b.Testbench())
		b.Close()
		for i := range golden {
			if trace[i] != golden[i] {
				t.Fatalf("batch workers=%d diverges at trace[%d]: %d != %d",
					workers, i, trace[i], golden[i])
			}
		}
	}
}

// TestPortPeekParityAcrossEngines drives the same random stimulus through
// scalar, partitioned, fused-batch, and parallel-batch engines and asserts
// the per-cycle Port peek traces are identical. Batch lanes beyond 0 are
// cross-checked against a session replaying that lane's stimulus.
func TestPortPeekParityAcrossEngines(t *testing.T) {
	const cycles = 32
	const lanes = 3
	watch := []string{"out_ready", "out_data", "ticks", "rv", "rd", "cnt"}
	stim := sim.RandomStimulus(99)

	// laneTrace collects the watched ports of one testbench lane per cycle.
	laneTrace := func(tb *sim.Testbench, lane int) []uint64 {
		var ports []*sim.Port
		for _, name := range watch {
			p, err := tb.PortLane(name, lane)
			if err != nil {
				t.Fatal(err)
			}
			ports = append(ports, p)
		}
		var tr []uint64
		for c := 0; c < cycles; c++ {
			if err := tb.Step(); err != nil {
				t.Fatal(err)
			}
			for _, p := range ports {
				tr = append(tr, p.Peek())
			}
		}
		return tr
	}

	compile := func(opts ...sim.Option) *sim.Design {
		d, err := sim.Compile(dmiSrc, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	base := compile()
	s := base.NewSession()
	tb := s.Testbench()
	tb.Drive(stim)
	golden := laneTrace(tb, 0)

	// Partitioned sessions, n ∈ {2, 3}.
	for _, parts := range []int{2, 3} {
		d := compile(sim.WithPartitions(parts))
		ps := d.NewSession()
		ptb := ps.Testbench()
		ptb.Drive(stim)
		tr := laneTrace(ptb, 0)
		ps.Close()
		for i := range golden {
			if tr[i] != golden[i] {
				t.Fatalf("partitioned n=%d diverges at trace[%d]: %d != %d", parts, i, tr[i], golden[i])
			}
		}
	}

	// Batches: fused sequential and parallel. Lane 0 must equal the
	// session; lane l must equal a session replaying lane l's stimulus.
	for _, workers := range []int{1, 3} {
		b, err := base.NewBatchParallel(lanes, workers)
		if err != nil {
			t.Fatal(err)
		}
		btb := b.Testbench()
		btb.Drive(stim)
		var traces [lanes][]uint64
		var ports [lanes][]*sim.Port
		for l := 0; l < lanes; l++ {
			for _, name := range watch {
				p, err := btb.PortLane(name, l)
				if err != nil {
					t.Fatal(err)
				}
				ports[l] = append(ports[l], p)
			}
		}
		for c := 0; c < cycles; c++ {
			if err := btb.Step(); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < lanes; l++ {
				for _, p := range ports[l] {
					traces[l] = append(traces[l], p.Peek())
				}
			}
		}
		b.Close()
		for i := range golden {
			if traces[0][i] != golden[i] {
				t.Fatalf("batch workers=%d lane 0 diverges at trace[%d]: %d != %d",
					workers, i, traces[0][i], golden[i])
			}
		}
		for l := 1; l < lanes; l++ {
			lane := l
			rs := base.NewSession()
			rtb := rs.Testbench()
			rtb.Drive(sim.StimulusFunc(func(cycle int64, _, input int) uint64 {
				return stim.Value(cycle, lane, input)
			}))
			want := laneTrace(rtb, 0)
			for i := range want {
				if traces[l][i] != want[i] {
					t.Fatalf("batch workers=%d lane %d diverges at trace[%d]: %d != %d",
						workers, l, i, traces[l][i], want[i])
				}
			}
		}
	}
}

// TestPartitionedRegisterPokeParity is the regression test for routed DMI
// pokes: a register poked mid-run on a partitioned session must influence
// every partition's cone exactly as it does on the scalar engine, even
// when the poked register is read by cones its owner does not host.
func TestPartitionedRegisterPokeParity(t *testing.T) {
	run := func(opts ...sim.Option) []uint64 {
		d, err := sim.Compile(dmiSrc, opts...)
		if err != nil {
			t.Fatal(err)
		}
		s := d.NewSession()
		defer s.Close()
		tb := s.Testbench()
		tb.Drive(sim.RandomStimulus(7))
		var tr []uint64
		for c := 0; c < 24; c++ {
			if c%5 == 2 {
				// Host rewrites architectural state mid-run.
				for _, reg := range []string{"cnt", "rd", "rv"} {
					p, err := tb.Port(reg)
					if err != nil {
						t.Fatal(err)
					}
					p.Poke(uint64(c * 13))
				}
			}
			if err := tb.Step(); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"out_ready", "out_data", "ticks"} {
				p, err := tb.Port(name)
				if err != nil {
					t.Fatal(err)
				}
				tr = append(tr, p.Peek())
			}
			tr = append(tr, s.Registers()...)
		}
		return tr
	}
	golden := run()
	for _, parts := range []int{2, 3} {
		got := run(sim.WithPartitions(parts))
		for i := range golden {
			if got[i] != golden[i] {
				t.Fatalf("partitioned n=%d poke trace diverges at [%d]: %d != %d",
					parts, i, got[i], golden[i])
			}
		}
	}
}

func TestTestbenchErrors(t *testing.T) {
	d, err := sim.Compile(dmiSrc)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewSession()
	tb := s.Testbench()
	if _, err := tb.Port("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown signal: %v", err)
	}
	if _, err := tb.PortLane("ticks", 1); err == nil {
		t.Error("out-of-range lane accepted on session testbench")
	}
	if _, err := tb.PortLane("ticks", -1); err == nil {
		t.Error("negative lane accepted")
	}
	if _, err := tb.Transact(map[string]uint64{"bogus": 1}, "ticks", nil, 3); err == nil {
		t.Error("transact with unknown poke signal accepted")
	}
	if _, err := tb.Transact(nil, "bogus", nil, 3); err == nil {
		t.Error("transact with unknown response signal accepted")
	}
	if _, err := tb.TransactLane(9, nil, "ticks", nil, 3); err == nil {
		t.Error("transact on out-of-range lane accepted")
	}
	if _, err := tb.Handshake("bogus", nil, "out_ready", 3); err == nil {
		t.Error("handshake with unknown valid signal accepted")
	}
	if _, err := tb.HandshakeLane(9, "in_valid", nil, "out_ready", 3); err == nil {
		t.Error("handshake on out-of-range lane accepted")
	}

	// Wait timeout: out_ready can never be 7.
	p, err := tb.Port("out_ready")
	if err != nil {
		t.Fatal(err)
	}
	before := tb.Cycle()
	_, err = p.Wait(func(v uint64) bool { return v == 7 }, 4)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("wait timeout: %v", err)
	}
	if got := tb.Cycle() - before; got != 4 {
		t.Errorf("timed-out wait stepped %d cycles, want 4", got)
	}
}

func TestDesignSignals(t *testing.T) {
	d, err := sim.Compile(dmiSrc)
	if err != nil {
		t.Fatal(err)
	}
	names := d.Signals()
	for _, want := range []string{"in_valid", "in_data", "out_ready", "out_data", "ticks", "rv", "rd", "cnt"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Signals() missing %q: %v", want, names)
		}
	}
	s := d.NewSession()
	tb := s.Testbench()
	if got := tb.Signals(); len(got) != len(names) {
		t.Errorf("testbench Signals() = %v, design Signals() = %v", got, names)
	}
	if tb.Lanes() != 1 {
		t.Errorf("session testbench lanes = %d", tb.Lanes())
	}
	p, err := tb.Port("cnt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != "register" || p.Name() != "cnt" || p.Lane() != 0 {
		t.Errorf("port metadata: kind=%s name=%s lane=%d", p.Kind(), p.Name(), p.Lane())
	}
}

// TestTestbenchCancel pins the cancellation contract across engine shapes:
// a probe installed with SetCancel stops a bulk run at a chunk boundary
// with ErrRunCanceled, the overshoot past the trip point is bounded by
// kernel.CancelCheckCycles, the completed prefix is committed (Cycle and
// register state agree with the cut-short run), and the testbench stays
// fully usable — clearing the probe and running on yields the same state
// as an uninterrupted run. The stimulus leg checks the same under a
// driven stimulus, which every chunk the testbench cuts must resume at its
// absolute cycle: every lane's registers must match an uncancelled run on a fresh
// engine, and a probe that never fires must change nothing.
func TestTestbenchCancel(t *testing.T) {
	const total = 5 * 1024 // several cancel-check chunks
	for _, tc := range []struct {
		name string
		open func(t *testing.T, src string) cancelBench
	}{
		{"scalar", func(t *testing.T, src string) cancelBench {
			return sessionBench(t, src)
		}},
		{"partitioned", func(t *testing.T, src string) cancelBench {
			return sessionBench(t, src, sim.WithPartitions(2))
		}},
		{"batch", func(t *testing.T, src string) cancelBench {
			d, err := sim.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			b, err := d.NewBatchParallel(3, 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(b.Close)
			return cancelBench{b.Testbench(), func() [][]uint64 {
				regs := make([][]uint64, b.Lanes())
				for l := range regs {
					regs[l] = b.Registers(l)
				}
				return regs
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := tc.open(t, counterSrc).tb
			step, err := tb.Port("step")
			if err != nil {
				t.Fatal(err)
			}
			step.Poke(1)

			// Trip on the second poll: the run must end at the first chunk
			// boundary, not run to completion and not return zero cycles.
			polls := 0
			tb.SetCancel(func() bool { polls++; return polls > 1 })
			err = tb.Run(total)
			if err != sim.ErrRunCanceled {
				t.Fatalf("cancelled Run returned %v, want ErrRunCanceled", err)
			}
			at := tb.Cycle()
			if at == 0 || at >= total {
				t.Fatalf("cancelled run committed %d cycles, want a proper prefix of %d", at, total)
			}
			if at > kernel.CancelCheckCycles {
				t.Fatalf("overshoot: cancelled after %d cycles, bound is %d", at, kernel.CancelCheckCycles)
			}
			// Step is a one-cycle run: with the probe still true it is
			// canceled before its cycle, like Run(1).
			if err := tb.Step(); err != sim.ErrRunCanceled || tb.Cycle() != at {
				t.Fatalf("Step under a tripped probe: err %v, cycle %d -> %d; want ErrRunCanceled and no advance",
					err, at, tb.Cycle())
			}

			// The prefix is consistent and the testbench still works: clear
			// the probe, finish the run, and the counter shows every cycle.
			tb.SetCancel(nil)
			if err := tb.Run(total - at); err != nil {
				t.Fatal(err)
			}
			count, err := tb.Port("count")
			if err != nil {
				t.Fatal(err)
			}
			// Outputs sample at settle, before that cycle's commit: after
			// total completed cycles count reads (total-1)*step. Any skipped
			// or double-run chunk around the cancellation would show here.
			if got, want := count.Peek(), uint64(total-1)&0xff; got != want {
				t.Fatalf("count after resume = %d, want %d", got, want)
			}
		})

		// pairSrc accumulates every step value into x, so a stimulus poke
		// delivered at the wrong cycle, dropped or repeated across a chunk
		// boundary shows in the final registers; and it has two registers,
		// so WithPartitions(2) really runs two partitions.
		t.Run(tc.name+"/stimulus", func(t *testing.T) {
			const total = 5*1024 + 100
			run := func(probe func() bool, n int64) (cancelBench, error) {
				b := tc.open(t, pairSrc)
				b.tb.Drive(sim.RandomStimulus(1))
				b.tb.SetCancel(probe)
				return b, b.tb.Run(n)
			}
			ref, err := run(nil, total)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.regs()

			inert, err := run(func() bool { return false }, total)
			if err != nil || inert.tb.Cycle() != total || !slices.EqualFunc(inert.regs(), want, slices.Equal) {
				t.Fatalf("never-true probe: err %v, cycle %d, registers %v; want nil, %d, %v",
					err, inert.tb.Cycle(), inert.regs(), total, want)
			}

			polls := 0
			cut, err := run(func() bool { polls++; return polls > 1 }, total)
			at := cut.tb.Cycle()
			if err != sim.ErrRunCanceled || at == 0 || at > kernel.CancelCheckCycles {
				t.Fatalf("cancelled run: err %v after %d cycles; want ErrRunCanceled within %d",
					err, at, kernel.CancelCheckCycles)
			}
			prefix, err := run(nil, at)
			if err != nil || !slices.EqualFunc(cut.regs(), prefix.regs(), slices.Equal) {
				t.Fatalf("cancelled prefix: registers %v, an uncancelled %d-cycle run has %v (err %v)",
					cut.regs(), at, prefix.regs(), err)
			}
			cut.tb.SetCancel(nil)
			if err := cut.tb.Run(total - at); err != nil {
				t.Fatal(err)
			}
			if got := cut.regs(); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("resumed run: registers %v, uncancelled run %v", got, want)
			}
		})
	}
}

// cancelBench is one engine shape that TestTestbenchCancel drives — a testbench
// and a reader of every lane's committed registers.
type cancelBench struct {
	tb   *sim.Testbench
	regs func() [][]uint64
}

// sessionBench opens a session of src as a cancelBench.
func sessionBench(t *testing.T, src string, opts ...sim.Option) cancelBench {
	t.Helper()
	d, err := sim.Compile(src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewSession()
	t.Cleanup(s.Close)
	return cancelBench{s.Testbench(), func() [][]uint64 { return [][]uint64{s.Registers()} }}
}

// echoGraph: out_ready goes high one cycle after in_valid, echoing in_data.
func echoGraph() *dfg.Graph {
	g := &dfg.Graph{Name: "echo"}
	valid := g.AddInput("in_valid", 1)
	data := g.AddInput("in_data", 16)
	rv := g.AddReg("rv", 1, 0)
	rd := g.AddReg("rd", 16, 0)
	g.SetRegNext(rv, valid)
	g.SetRegNext(rd, data)
	g.AddOutput("out_ready", rv)
	g.AddOutput("out_data", rd)
	return g
}

// stuckGraph is a DUT whose ready never rises — out_ready mirrors a register
// stuck at 0 — and whose in_valid no cone consumes, so on a partitioned
// session the poke has no user partition to route to.
func stuckGraph() *dfg.Graph {
	g := &dfg.Graph{Name: "stuck"}
	g.AddInput("in_valid", 1)
	z := g.AddReg("rz", 1, 0)
	g.SetRegNext(z, g.AddConst(0, 1))
	g.AddOutput("out_ready", z)
	return g
}

// TestPortLayer holds the port layer — ports, waits, transactions,
// handshakes — to one table of behaviours on every shape a testbench binds
// to: a session, a partitioned session, and one inner lane of a wide and of
// a bit-packed batch. Everything here runs on the path users reach: each
// wait is one engine-level run with a watch.
func TestPortLayer(t *testing.T) {
	shapes := []struct {
		name   string
		lanes  int // 0: a session
		packed bool
		opts   []sim.Option
	}{
		{name: "session"},
		{name: "partitioned", opts: []sim.Option{sim.WithPartitions(2)}},
		{name: "batch-wide", lanes: 3},
		{name: "batch-packed", lanes: 3, packed: true},
	}
	// port resolves a signal that must exist.
	port := func(t *testing.T, tb *sim.Testbench, name string, lane int) *sim.Port {
		t.Helper()
		p, err := tb.PortLane(name, lane)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, row := range []struct {
		name  string
		graph func() *dfg.Graph
		check func(t *testing.T, tb *sim.Testbench, lane int)
	}{
		{"transact", echoGraph, func(t *testing.T, tb *sim.Testbench, lane int) {
			got, err := tb.TransactLane(lane,
				map[string]uint64{"in_valid": 1, "in_data": 0xBEEF},
				"out_ready", func(v uint64) bool { return v == 1 }, 10)
			if err != nil {
				t.Fatal(err)
			}
			if got != 1 {
				t.Fatalf("ready = %d", got)
			}
			if data := port(t, tb, "out_data", lane).Peek(); data != 0xBEEF {
				t.Fatalf("echoed data = %#x", data)
			}
			// The transaction poked one lane; its neighbours saw nothing.
			for l := 0; l < tb.Lanes(); l++ {
				if data := port(t, tb, "out_data", l).Peek(); l != lane && data != 0 {
					t.Fatalf("lane %d echoed %#x from lane %d's transaction", l, data, lane)
				}
			}
		}},
		{"register_port", echoGraph, func(t *testing.T, tb *sim.Testbench, lane int) {
			// Registers resolve by name to their Q coordinate.
			rd := port(t, tb, "rd", lane)
			if rd.Kind() != "register" || rd.Name() != "rd" || rd.Lane() != lane {
				t.Fatalf("rd resolved as kind=%s name=%s lane=%d", rd.Kind(), rd.Name(), rd.Lane())
			}
			rd.Poke(0x1234)
			if got := rd.Peek(); got != 0x1234 {
				t.Fatalf("poked register reads %#x", got)
			}
			if err := tb.Step(); err != nil {
				t.Fatal(err)
			}
			// The poked Q value fed that cycle's settle — out_data samples
			// rd — and the commit then reloaded rd from in_data (0).
			if got := port(t, tb, "out_data", lane).Peek(); got != 0x1234 {
				t.Fatalf("out_data after the poked cycle = %#x", got)
			}
			if got := rd.Peek(); got != 0 {
				t.Fatalf("rd after recommit = %#x", got)
			}
		}},
		{"errors", echoGraph, func(t *testing.T, tb *sim.Testbench, lane int) {
			if _, err := tb.PortLane("nope", lane); err == nil || !strings.Contains(err.Error(), `"nope"`) {
				t.Errorf("unknown signal accepted for port: %v", err)
			}
			if _, err := tb.TransactLane(lane, map[string]uint64{"nope": 1}, "out_ready", nil, 3); err == nil {
				t.Error("unknown signal accepted for poke")
			}
			if _, err := tb.TransactLane(lane, nil, "nope", nil, 3); err == nil {
				t.Error("unknown signal accepted for peek")
			}
			if tb.Cycle() != 0 {
				t.Errorf("rejected transactions advanced %d cycles", tb.Cycle())
			}
			_, err := tb.TransactLane(lane, map[string]uint64{"in_valid": 0}, "out_ready",
				func(v uint64) bool { return v == 7 }, 3)
			if err == nil || !strings.Contains(err.Error(), "timed out") {
				t.Errorf("timeout not reported: %v", err)
			}
			if tb.Cycle() != 3 {
				t.Errorf("timed-out transaction ran %d cycles, want 3", tb.Cycle())
			}
		}},
		{"handshake", echoGraph, func(t *testing.T, tb *sim.Testbench, lane int) {
			cycles, err := tb.HandshakeLane(lane, "in_valid", map[string]uint64{"in_data": 77}, "out_ready", 5)
			if err != nil {
				t.Fatal(err)
			}
			// Outputs are sampled at settle, before the commit of the same
			// cycle, so the registered ready is observed two cycles after
			// valid asserts.
			if cycles != 2 {
				t.Fatalf("echo handshake took %d cycles, want 2", cycles)
			}
			if port(t, tb, "in_valid", lane).Peek() != 0 {
				t.Fatal("valid still asserted after handshake")
			}
			if _, err := tb.HandshakeLane(lane, "nope", nil, "out_ready", 5); err == nil {
				t.Fatal("unknown valid signal accepted")
			}
		}},
		// A timed-out handshake must not leave valid asserted, or later
		// cycles would consume phantom beats.
		{"handshake_timeout_drops_valid", stuckGraph, func(t *testing.T, tb *sim.Testbench, lane int) {
			cycles, err := tb.HandshakeLane(lane, "in_valid", nil, "out_ready", 3)
			if err == nil || !strings.Contains(err.Error(), "timed out") {
				t.Fatalf("stuck handshake did not time out: %v", err)
			}
			if cycles != 3 {
				t.Fatalf("timed-out handshake reports %d cycles, want 3", cycles)
			}
			if port(t, tb, "in_valid", lane).Peek() != 0 {
				t.Fatal("valid still asserted after handshake timeout")
			}
		}},
		{"signals", echoGraph, func(t *testing.T, tb *sim.Testbench, _ int) {
			want := []string{"in_data", "in_valid", "out_data", "out_ready", "rd", "rv"}
			if names := tb.Signals(); !slices.Equal(names, want) {
				t.Fatalf("Signals() = %v, want %v", names, want)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) {
					d, err := sim.CompileGraph(row.graph(), sh.opts...)
					if err != nil {
						t.Fatal(err)
					}
					if sh.lanes == 0 {
						s := d.NewSession()
						defer s.Close()
						row.check(t, s.Testbench(), 0)
						return
					}
					mint := sim.NewWideBatch
					if sh.packed {
						mint = (*sim.Design).NewBatchParallel
					}
					b, err := mint(d, sh.lanes, 1)
					if err != nil {
						t.Fatal(err)
					}
					defer b.Close()
					if b.Packed() != sh.packed {
						t.Fatalf("batch packed = %v, want %v", b.Packed(), sh.packed)
					}
					row.check(t, b.Testbench(), 1)
				})
			}
		})
	}
}

// TestTestbenchAllocs pins what the port layer allocates: binding a
// testbench costs the same for 256 lanes as for one, resolving a port
// allocates the port, and a transaction allocates no port at all.
func TestTestbenchAllocs(t *testing.T) {
	d, err := sim.CompileGraph(echoGraph())
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewBatch(256)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = b.Testbench() }); n > 8 {
		t.Errorf("Batch(256).Testbench() allocates %v times, want at most 8", n)
	}
	tb := d.NewSession().Testbench()
	if n := testing.AllocsPerRun(100, func() { _, _ = tb.Port("rd") }); n > 1 {
		t.Errorf("Port allocates %v times, want at most 1", n)
	}
	pokes := map[string]uint64{"in_valid": 1}
	accept := func(uint64) bool { return true }
	if n := testing.AllocsPerRun(100, func() { _, _ = tb.Transact(pokes, "out_ready", accept, 4) }); n > 2 {
		t.Errorf("Transact with one poke allocates %v times, want at most 2", n)
	}
}
