package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rteaal/internal/baseline"
	"rteaal/internal/dfg"
	"rteaal/internal/firrtl"
	"rteaal/internal/kernel"
	"rteaal/internal/oim"
	"rteaal/internal/repcut"
	"rteaal/internal/server"
	"rteaal/internal/testbench"
	"rteaal/sim"
	"rteaal/sim/client"
)

// The per-layer metrics of a traced run. Every layer is measured from
// outside, by calling its public entry point on the traced workload's own
// design and text, so one name reads differently on each workload and
// compares only with itself. Rates here use short windows and carry no
// bound; they say where an end-to-end change came from, not whether there
// was one.

// probe is the state the layer probes share.
type probe struct {
	w    *workload
	in   *inputs
	sz   sizing
	seed int64
	run  runner // the workload's own engine or service
	tr   *tracer
	root int
	m    map[string]metric

	// Products of the compile phases, reused by the run-side probes.
	elaborated, optimized *dfg.Graph
	tensor                *oim.Tensor
	prog                  *kernel.Program
	plain                 *sim.Design // compiled without options
	// Set by the compile phases of the partitioned workload only.
	plan      *repcut.Plan
	partProgs []*kernel.Program
}

func (p *probe) set(name string, v float64, unit string) { p.m[name] = metric{Value: v, Unit: unit} }

// ladderCycles is the cycle count every rung of the run-side ladder runs:
// about one probe window of a plain session on this design, in whole
// cancellation chunks, frozen like the window sizes.
func (p *probe) ladderCycles() int64 {
	per := p.w.scalarRate * float64(p.sz.scaleMul) * p.sz.probeSeconds
	return max(int64(math.Round(per/kernel.CancelCheckCycles)), 1) * kernel.CancelCheckCycles
}

// rate is rateFor over one probe window.
func (p *probe) rate(name string, unit int64, fn func(n int64) error) (float64, error) {
	return p.rateFor(p.sz.probeSeconds, name, unit, fn)
}

// rateFor calls fn(unit) under a span named name until seconds have passed
// and returns simulated cycles per second, after a short untimed call so
// lazily built state is not billed to the window.
func (p *probe) rateFor(seconds float64, name string, unit int64, fn func(n int64) error) (float64, error) {
	if err := fn(max(unit/8, 1)); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	id := p.tr.begin(name, p.root)
	defer p.tr.end(id)
	start := time.Now()
	var done int64
	for time.Since(start).Seconds() < seconds || done == 0 {
		if err := fn(unit); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		done += unit
	}
	return float64(done) / time.Since(start).Seconds(), nil
}

// latency calls fn reps times under one span and returns the median call in
// seconds.
func (p *probe) latency(name string, reps int, fn func() error) (float64, error) {
	id := p.tr.begin(name, p.root)
	defer p.tr.end(id)
	took := make([]float64, reps)
	for i := range took {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		took[i] = time.Since(start).Seconds()
	}
	return median(took), nil
}

func probeLayers(w *workload, in *inputs, sz sizing, seed int64, run runner, tr *tracer, root int, m map[string]metric) error {
	p := &probe{w: w, in: in, sz: sz, seed: seed, run: run, tr: tr, root: root, m: m}
	p.set("gen.generate_s", in.generate.Seconds(), "s")
	p.set("firrtl.emit_s", in.emit.Seconds(), "s")
	p.set("firrtl.source_mb", float64(len(in.src))/(1<<20), "MiB")
	for _, step := range []func() error{p.compileSide, p.partitioned, p.ladderAndService, p.kinds, p.batches} {
		if err := step(); err != nil {
			return err
		}
	}
	p.set("sim.peak_rss_mb", peakRSSMiB(), "MiB")
	return nil
}

// compileSide calls the compile phases itself, in sim.Compile's order on the
// same text, one span each under a compile span, then sim.Compile with the
// workload's options, then the first instantiation.
func (p *probe) compileSide() error {
	var (
		circuit *firrtl.Circuit
		lv      *dfg.Levelized
	)
	cfg := kernel.Config{Kind: kernel.PSU}
	partitioned := p.w.kind == partitionedSession
	type phase struct {
		name string
		fn   func() error
	}
	phases := []phase{
		{"firrtl.parse", func() (err error) { circuit, err = firrtl.Parse(p.in.src); return }},
		{"firrtl.elaborate", func() (err error) { p.elaborated, err = firrtl.Elaborate(circuit); return }},
		{"dfg.optimize", func() (err error) {
			p.optimized, err = dfg.Optimize(p.elaborated, dfg.DefaultOptOptions())
			return
		}},
		{"dfg.levelize", func() (err error) { lv, err = dfg.Levelize(p.optimized); return }},
		{"oim.build", func() (err error) { p.tensor, err = oim.Build(lv); return }},
	}
	// A partitioned compile lowers per partition and skips the monolithic
	// program; the other side's phase is measured by its own probe.
	if partitioned {
		phases = append(phases,
			phase{"repcut.new_plan", func() (err error) { p.plan, err = repcut.NewPlan(p.tensor, p.w.workers(), nil); return }},
			phase{"repcut.lower", func() (err error) { p.partProgs, err = p.plan.Lower(cfg); return }})
	} else {
		phases = append(phases,
			phase{"kernel.new_program", func() (err error) { p.prog, err = kernel.NewProgram(p.tensor, cfg); return }})
	}
	// Each pass calls the phases one by one, then sim.Compile on the same
	// text, each from a collected heap; a metric is the median over passes.
	took := map[string][]float64{}
	var allocated []float64
	var d *sim.Design
	for pass := 0; pass < p.sz.compileRepeats; pass++ {
		runtime.GC()
		comp := p.tr.begin("compile", p.root)
		for _, ph := range phases {
			t, err := p.tr.timed(ph.name, comp, ph.fn)
			if err != nil {
				return fmt.Errorf("%s: %w", ph.name, err)
			}
			took[ph.name] = append(took[ph.name], t.Seconds())
		}
		p.tr.end(comp)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t, err := p.tr.timed("sim.compile", p.root, func() (err error) {
			d, err = sim.Compile(p.in.src, p.w.compileOptions()...)
			return
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		took["sim.compile"] = append(took["sim.compile"], t.Seconds())
		allocated = append(allocated, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
	var sum float64
	for _, ph := range phases {
		sum += median(took[ph.name])
		p.set(ph.name+"_s", median(took[ph.name]), "s")
	}
	compile := median(took["sim.compile"])
	p.set("sim.compile_s", compile, "s")
	p.set("sim.compile_alloc_mb", median(allocated), "MiB")
	// The phases called one by one should add up to the one call; more than
	// 15 % apart means sim.Compile does something this list misses.
	gap := math.Abs(sum/compile - 1)
	p.set("sim.phases_gap_frac", gap, "frac")
	if gap > 0.15 {
		fmt.Printf("FLAG %s: compile phases sum to %.3f s but sim.Compile took %.3f s\n", p.w.name, sum, compile)
	}
	if partitioned {
		t, err := p.tr.timed("kernel.new_program", p.root, func() (err error) { p.prog, err = kernel.NewProgram(p.tensor, cfg); return })
		if err != nil {
			return err
		}
		p.set("kernel.new_program_s", t.Seconds(), "s")
	}
	p.set("dfg.nodes_in", float64(p.elaborated.NumNodes()), "count")
	p.set("dfg.nodes_out", float64(p.optimized.NumNodes()), "count")
	p.set("oim.ops", float64(p.tensor.TotalOps()), "count")
	p.set("oim.layers", float64(p.tensor.NumLayers()), "count")
	p.set("oim.slots", float64(p.tensor.NumSlots), "count")

	instantiate, err := p.tr.timed("sim.instantiate", p.root, func() error {
		if p.w.kind == batchEngine {
			b, err := d.NewBatchParallel(p.w.lanes, p.w.workers())
			if err != nil {
				return err
			}
			b.Close()
			return nil
		}
		d.NewSession().Close()
		return nil
	})
	if err != nil {
		return err
	}
	p.set("sim.instantiate_s", instantiate.Seconds(), "s")

	p.plain = d
	if partitioned {
		if p.plain, err = sim.CompileGraph(p.elaborated); err != nil {
			return err
		}
	}
	return nil
}

// partitioned measures the RepCut layer on the workload's design with P
// partitions: planning and lowering cost, the plan's static figures, and the
// instance stepped per cycle and run in bulk, beside a plain session of the
// same design — none of them under stimulus. A design above the sizing's op
// cap is replaced by the same family at the smallest further scale under it.
func (p *probe) partitioned() error {
	plan, progs, plain := p.plan, p.partProgs, p.plain
	if plan == nil {
		t := p.tensor
		for spec := p.w.scaledSpec(p.sz); t.TotalOps() > p.sz.repcutOpsCap; {
			spec.Scale *= 2
			small, err := makeInputs(spec)
			if err != nil {
				return err
			}
			if t, err = buildTensor(small.src); err != nil {
				return err
			}
			if t.TotalOps() <= p.sz.repcutOpsCap {
				if plain, err = sim.Compile(small.src); err != nil {
					return err
				}
			}
		}
		d, err := p.tr.timed("repcut.new_plan", p.root, func() (err error) { plan, err = repcut.NewPlan(t, parallelism(), nil); return })
		if err != nil {
			return err
		}
		p.set("repcut.new_plan_s", d.Seconds(), "s")
		d, err = p.tr.timed("repcut.lower", p.root, func() (err error) {
			progs, err = plan.Lower(kernel.Config{Kind: kernel.PSU})
			return
		})
		if err != nil {
			return err
		}
		p.set("repcut.lower_s", d.Seconds(), "s")
	}
	st := plan.Stats()
	p.set("repcut.replication_factor", st.ReplicationFactor, "ratio")
	p.set("repcut.cut_size", float64(st.CutSize), "count")
	p.set("repcut.max_over_min_ops", float64(st.MaxPartitionOps)/float64(max(st.MinPartitionOps, 1)), "ratio")

	inst, err := plan.Instantiate(progs)
	if err != nil {
		return err
	}
	defer inst.Close()
	step, err := p.rate("repcut.step", 256, func(n int64) error {
		for i := int64(0); i < n; i++ {
			inst.Step()
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("repcut.step_cycles_per_s", step, "1/s")
	// Five short bulk windows: their spread is the only outside view of
	// barrier-wait noise until the engines export counters.
	var windows []float64
	for i := 0; i < 5; i++ {
		r, err := p.rateFor(p.sz.probeSeconds/2, "repcut.run", p.sz.bulkCycles, func(n int64) error { inst.RunCycles(int(n)); return nil })
		if err != nil {
			return err
		}
		windows = append(windows, r)
	}
	p.set("repcut.run_cycles_per_s", median(windows), "1/s")
	p.set("repcut.window_iqr_frac", iqrFrac(windows), "frac")

	unpart, err := p.rate("sim.unpartitioned", p.sz.bulkCycles, plain.NewSession().Run)
	if err != nil {
		return err
	}
	p.set("sim.unpartitioned_cycles_per_s", unpart, "1/s")
	p.set("repcut.speedup_vs_unpartitioned", median(windows)/unpart, "ratio")
	return nil
}

// buildTensor runs the frontend and the default passes down to the OIM.
func buildTensor(src string) (*oim.Tensor, error) {
	g, err := firrtl.ParseAndElaborate(src)
	if err != nil {
		return nil, err
	}
	if g, err = dfg.Optimize(g, dfg.DefaultOptOptions()); err != nil {
		return nil, err
	}
	lv, err := dfg.Levelize(g)
	if err != nil {
		return nil, err
	}
	return oim.Build(lv)
}

// fiveCommands is the httpService script with fixed values, for the probes
// that time one request.
func fiveCommands(inputs, outputs []string) []testbench.Command {
	return client.NewScript().Poke(inputs[0], 1).Poke(inputs[1], 2).Step(stepsPerRequest).
		Peek(outputs[0]).Peek(outputs[1]).Commands()
}

// serveJSON sends one request through Server.ServeHTTP with a recorder — no
// socket — and decodes a 2xx reply into out.
func serveJSON(srv *server.Server, method, path string, body, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	req.Header.Set("X-Client", "bench-probe")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code < 200 || rec.Code > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// ladderAndService climbs the run side on one design and one cycle count:
// kernel step, kernel bulk run, Session.Run, Testbench.Run, a `step` script
// through the server without a socket, and the same script through
// sim/client over loopback. No rung drives stimulus, so each contains the one
// below and the ratios price exactly one layer. The server it starts also
// answers the service probes: compile miss and hit, session open and close,
// one five-command request in-process and over loopback.
func (p *probe) ladderAndService() error {
	n := p.ladderCycles()
	eng := p.prog.Instantiate()
	rung := func(name string, fn func(n int64) error) (float64, error) {
		r, err := p.rate(name, n, fn)
		if err == nil {
			p.set(name+"_cycles_per_s", r, "1/s")
		}
		return r, err
	}
	if _, err := rung("kernel.step", func(n int64) error {
		for i := int64(0); i < n; i++ {
			eng.Step()
		}
		return nil
	}); err != nil {
		return err
	}
	krun, err := rung("kernel.run", func(n int64) error { kernel.RunEngine(eng, kernel.RunSpec{Cycles: int(n)}); return nil })
	if err != nil {
		return err
	}
	sess := p.plain.NewSession()
	session, err := rung("sim.session_run", sess.Run)
	if err != nil {
		return err
	}
	tb := p.plain.NewSession().Testbench()
	tbench, err := rung("sim.testbench_run", tb.Run)
	if err != nil {
		return err
	}

	srv := server.New(server.Config{})
	defer srv.Close()
	var compiled server.CompileResponse
	post := func() error {
		return serveJSON(srv, http.MethodPost, "/designs", server.CompileRequest{Source: p.in.src}, &compiled)
	}
	miss, err := p.latency("server.compile_miss", 1, post)
	if err != nil {
		return err
	}
	p.set("server.compile_miss_s", miss, "s")
	hit, err := p.latency("server.compile_hit", p.sz.probeReps, post)
	if err != nil {
		return err
	}
	p.set("server.compile_hit_ms", hit*1e3, "ms")

	var lease server.SessionResponse
	open := func() error {
		return serveJSON(srv, http.MethodPost, "/designs/"+compiled.Hash+"/sessions", nil, &lease)
	}
	closeLease := func() error { return serveJSON(srv, http.MethodDelete, "/sessions/"+lease.SessionID, nil, nil) }
	var opens, closes []float64
	for i := 0; i < p.sz.probeReps; i++ {
		o, err := p.latency("server.session_open", 1, open)
		if err != nil {
			return err
		}
		c, err := p.latency("server.session_close", 1, closeLease)
		if err != nil {
			return err
		}
		opens, closes = append(opens, o), append(closes, c)
	}
	p.set("server.session_open_ms", median(opens)*1e3, "ms")
	p.set("server.session_close_ms", median(closes)*1e3, "ms")

	if err := open(); err != nil {
		return err
	}
	exec := func(cmds []testbench.Command) error {
		body, err := testbench.EncodeCommands(cmds)
		if err != nil {
			return err
		}
		var reply server.CommandsResponse
		if err := serveJSON(srv, http.MethodPost, "/sessions/"+lease.SessionID+"/commands", server.CommandsRequest{Commands: body}, &reply); err != nil {
			return err
		}
		if reply.Error != "" {
			return fmt.Errorf("commands: %s", reply.Error)
		}
		return nil
	}
	sexec, err := rung("server.exec", func(n int64) error { return exec(client.NewScript().Step(n).Commands()) })
	if err != nil {
		return err
	}
	five := fiveCommands(compiled.Inputs, compiled.Outputs)
	execFive, err := p.latency("server.exec", p.sz.probeReps, func() error { return exec(five) })
	if err != nil {
		return err
	}
	p.set("server.exec_ms", execFive*1e3, "ms")
	if err := closeLease(); err != nil {
		return err
	}
	body, err := testbench.EncodeCommands(five)
	if err != nil {
		return err
	}
	decode, err := p.latency("testbench.decode", p.sz.probeReps, func() error {
		_, err := testbench.DecodeCommands(body, len(five))
		return err
	})
	if err != nil {
		return err
	}
	p.set("testbench.decode_us", decode*1e6, "us")

	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	cl := client.New(ts.URL, client.WithClientID("bench-probe"))
	remote, err := cl.NewSession(ctx, compiled.Hash, 0)
	if err != nil {
		return err
	}
	chttp, err := rung("client.http", func(n int64) error {
		_, err := remote.Do(ctx, client.NewScript().Step(n))
		return err
	})
	if err != nil {
		return err
	}
	// A thousand requests leave ten beyond the 99th percentile.
	script := client.NewScript()
	for _, c := range five {
		script.Add(c)
	}
	id := p.tr.begin("client.requests", p.root)
	took := make([]float64, max(p.sz.probeReps, 1000))
	for i := range took {
		do := p.tr.begin("client.do", id)
		start := time.Now()
		_, err := remote.Do(ctx, script)
		took[i] = time.Since(start).Seconds() * 1e3
		p.tr.end(do)
		if err != nil {
			return err
		}
	}
	p.tr.end(id)
	if err := remote.Close(ctx); err != nil {
		return err
	}
	if _, ok := p.m["client.req_p99_ms"]; !ok {
		p99, err := percentile(took, 0.99)
		if err != nil {
			return err
		}
		p.m["client.req_p99_ms"] = metric{Value: p99, Unit: "ms", Samples: len(took)}
	}

	p.set("sim.session_over_kernel", session/krun, "ratio")
	p.set("sim.testbench_over_session", tbench/session, "ratio")
	p.set("server.exec_over_testbench", sexec/tbench, "ratio")
	p.set("client.http_over_exec", chttp/sexec, "ratio")

	// On the httpService workload the request latency and the counters are
	// the workload's own; elsewhere they are this probe's.
	reqP50 := median(took)
	metrics, err := cl.Metrics(ctx)
	if svc, ok := p.run.(*service); ok {
		reqP50 = p.m["req_p50_ms"].Value
		metrics, err = svc.clients[0].Metrics(ctx)
	}
	if err != nil {
		return err
	}
	p.set("client.overhead_ms", reqP50-execFive*1e3, "ms")
	highWater := 0
	for _, pool := range metrics.Pools {
		highWater = max(highWater, pool.HighWater)
	}
	f := metrics.Fault
	p.set("server.cache_hits", float64(metrics.Cache.Hits), "count")
	p.set("server.cache_misses", float64(metrics.Cache.Misses), "count")
	p.set("server.pool_high_water", float64(highWater), "count")
	p.set("server.cycles_simulated", float64(metrics.Work.CyclesSimulated), "count")
	// The server keeps no 429 counter of its own yet; refused session
	// creations are the non-2xx replies of that route.
	p.set("server.rejected_429", float64(metrics.Endpoints["POST /designs/{hash}/sessions"].Errors), "count")
	p.set("server.fault_total", float64(f.PanicsRecovered+f.Timeouts+f.Canceled+f.DrainRejected+f.SessionsQuarantined+f.CircuitTrips), "count")
	return nil
}

// kinds runs the §5.2 kernel ladder through sim.WithKernel, the two
// comparators of the paper's evaluation on the same optimised graph, and the
// reference interpreter on the generator's graph.
func (p *probe) kinds() error {
	const unit = 64
	var psu float64
	for _, k := range sim.Kernels() {
		d, err := sim.CompileGraph(p.elaborated, sim.WithKernel(k))
		if err != nil {
			return err
		}
		name := "kernel.kind_" + strings.ToLower(k.String())
		r, err := p.rate(name, unit, d.NewSession().Run)
		if err != nil {
			return err
		}
		p.set(name+"_cycles_per_s", r, "1/s")
		if k == sim.PSU {
			psu = r
		}
	}
	var verilator float64
	for _, style := range []baseline.Style{baseline.Verilator, baseline.Essent} {
		s, err := baseline.New(p.optimized, style)
		if err != nil {
			return err
		}
		name := "baseline." + strings.ToLower(style.String())
		r, err := p.rate(name, unit, func(n int64) error {
			for i := int64(0); i < n; i++ {
				s.Step()
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.set(name+"_cycles_per_s", r, "1/s")
		if style == baseline.Verilator {
			verilator = r
		}
	}
	p.set("kernel.psu_over_verilator", psu/verilator, "ratio")
	it, err := dfg.NewInterp(p.in.graph)
	if err != nil {
		return err
	}
	r, err := p.rate("dfg.interp", unit, func(n int64) error { it.Run(int(n)); return nil })
	if err != nil {
		return err
	}
	p.set("dfg.interp_cycles_per_s", r, "1/s")
	return nil
}

// batches measures kernel.Batch on the workload's design at the workload's
// lane count (64 where it has none): the reference oracle, the fused wide
// schedule, the packed schedule, two workers against one, then sim.Batch
// against one session, dense testbench stimulus, and one PokeIndex.
func (p *probe) batches() error {
	lanes := p.w.lanes
	if p.w.kind != batchEngine {
		lanes = 64
	}
	const unit = 16
	laneRate := func(name string, o kernel.BatchOptions, run func(b *kernel.Batch, n int64)) (float64, error) {
		b, err := p.prog.InstantiateBatchWith(lanes, o)
		if err != nil {
			return 0, err
		}
		defer b.Close()
		r, err := p.rate(name, unit, func(n int64) error { run(b, n); return nil })
		return r * float64(lanes), err
	}
	bulk := func(b *kernel.Batch, n int64) { b.Run(int(n)) }
	reference, err := laneRate("kernel.batch_reference", kernel.BatchOptions{}, func(b *kernel.Batch, n int64) {
		for i := int64(0); i < n; i++ {
			b.StepReference()
		}
	})
	if err != nil {
		return err
	}
	fused, err := laneRate("kernel.batch_fused", kernel.BatchOptions{}, bulk)
	if err != nil {
		return err
	}
	packed, err := laneRate("kernel.batch_packed", kernel.BatchOptions{Packing: true}, bulk)
	if err != nil {
		return err
	}
	two, err := laneRate("kernel.batch_workers2", kernel.BatchOptions{Packing: true, Workers: 2}, bulk)
	if err != nil {
		return err
	}
	p.set("kernel.batch_reference_lane_cycles_per_s", reference, "1/s")
	p.set("kernel.batch_fused_lane_cycles_per_s", fused, "1/s")
	p.set("kernel.batch_packed_lane_cycles_per_s", packed, "1/s")
	p.set("kernel.batch_workers2_over_workers1", two/packed, "ratio")

	b, err := p.plain.NewBatch(lanes)
	if err != nil {
		return err
	}
	defer b.Close()
	simBatch, err := p.rate("sim.batch", unit, func(n int64) error { b.Run(n); return nil })
	if err != nil {
		return err
	}
	p.set("sim.batch_over_session", simBatch*float64(lanes)/p.m["sim.session_run_cycles_per_s"].Value, "ratio")
	inputs := len(p.plain.Inputs())
	const pokeRounds = 64
	poke, err := p.latency("sim.poke_index", 1, func() error {
		for r := 0; r < pokeRounds; r++ {
			for l := 0; l < lanes; l++ {
				for i := 0; i < inputs; i++ {
					b.PokeIndex(l, i, uint64(r+l+i))
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("sim.poke_index_ns", poke*1e9/float64(pokeRounds*lanes*inputs), "ns")
	tb := b.Testbench()
	tb.Drive(sim.RandomStimulus(p.seed))
	dense, err := p.rate("sim.testbench_dense", unit, tb.Run)
	if err != nil {
		return err
	}
	p.set("sim.testbench_dense_lane_cycles_per_s", dense*float64(lanes), "1/s")
	return nil
}

// peakRSSMiB is the process's VmHWM, 0 where /proc does not say.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
