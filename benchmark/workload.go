package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"rteaal/internal/dfg"
	"rteaal/internal/firrtl"
	"rteaal/internal/gen"
)

// engineKind says which public surface a workload drives.
type engineKind uint8

const (
	scalarSession engineKind = iota // one sim.Session
	partitionedSession
	batchEngine // sim.Batch
	httpService // internal/server behind sim/client
)

// workload is one set of inputs and the way they are driven. Everything the
// program under test receives — FIRRTL text, stimulus values, scripts — is
// generated from spec and the run's seed.
type workload struct {
	name, why string
	spec      gen.Spec
	kind      engineKind
	lanes     int   // batch width; 1 otherwise
	parallel  bool  // partitions / batch workers / clients = P instead of 1
	chunk     int64 // cycles per timed Run call; requests per session on httpService
	// windowChunks is the frozen work of one timed window, in chunks. Every
	// window replays exactly this from the reset state, on every commit and
	// at every --seconds, so windows compare and so do their digests. The
	// in-process workloads use one chunk, so that a slow moment of the host
	// spoils one sample of many rather than a fifth of the run.
	windowChunks int64
	// hold re-pokes every input once per chunk through Batch.PokeIndex and
	// holds it, instead of dense per-cycle stimulus through sim.Testbench.
	hold bool
	// rate is the workload's engine cycles (httpService: requests per
	// client) per host second on the baseline host, and scalarRate one
	// plain session's cycles per second on the same design. They are
	// frozen here: rate turns --seconds into a window count, scalarRate
	// sizes the ladder probes.
	rate, scalarRate float64
}

// stepsPerRequest is the `step` command of the httpService script: each
// request simulates this many cycles.
const stepsPerRequest = 4

var workloads = []workload{
	{
		name: "soc_scalar",
		why:  "r1 at full size (81k ops, working set beyond L2), one Session under dense random stimulus: the paper's headline case; the scalar PSU loop does all the run work and setup_s is pure frontend.",
		spec: gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 1}, kind: scalarSession, lanes: 1, chunk: 1024, windowChunks: 1,
		rate: 1850, scalarRate: 2000,
	},
	{
		name: "soc_partitioned",
		why:  "r4 at scale 8 under WithPartitions(P), MinCut: the only workload where repcut/partition do the work; setup_s is mostly repcut.NewPlan and the run is bound by the barrier and the RUM exchange.",
		spec: gen.Spec{Family: gen.Rocket, Cores: 4, Scale: 8}, kind: partitionedSession, lanes: 1, parallel: true, chunk: 4096, windowChunks: 1,
		rate: 6800, scalarRate: 10000,
	},
	{
		name: "soc_batch_wide",
		why:  "r1 at scale 8, 64 lanes over P workers, default packing (mostly demoted: wide bodies), dense per-lane stimulus: kernel.Batch as a datapath engine plus the lane-sharded runtime and Testbench stimulus.",
		spec: gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 8}, kind: batchEngine, lanes: 64, parallel: true, chunk: 512, windowChunks: 1,
		rate: 690, scalarRate: 22000,
	},
	{
		name: "ctrl_batch_packed",
		why:  "c2048 (1-bit control fabric), 256 lanes on one worker, inputs re-poked every 1024 cycles and held: kernel.Batch on its word-wide packed bodies, so trading wide against packed bodies shows per row.",
		spec: gen.Spec{Family: gen.Ctrl, Cores: 2048, Scale: 1}, kind: batchEngine, lanes: 256, chunk: 1024, windowChunks: 1, hold: true,
		rate: 2250, scalarRate: 2500,
	},
	{
		name: "serve_small_cmds",
		why:  "r1 at scale 64 behind internal/server, 2P closed-loop sim/client callers, five-command scripts, session churn every 256 requests: protocol-bound (JSON, exec, pool, cache, HTTP), kernel a minority.",
		spec: gen.Spec{Family: gen.Rocket, Cores: 1, Scale: 64}, kind: httpService, lanes: 1, parallel: true, chunk: 256, windowChunks: 4,
		rate: 3000, scalarRate: 65000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizing scales a run. canonical is what BENCHMARK.json's command measures;
// the smoke test uses a tiny one so an API rename breaks tier-1 in seconds.
type sizing struct {
	scaleMul     int     // multiplies every workload's gen scale
	seconds      float64 // timed budget: sets how many windows run
	windows      int     // least timed windows after one discarded warm-up window
	setupRepeats int     // least set-ups per run; setup_s is their median
	setupSeconds float64 // time allowance for repeating cheap set-ups beyond the least
	refCycles    int     // cycles replayed against dfg.Interp
	// compileRepeats is how often a traced run walks the compile phases and
	// sim.Compile; one pass of each is too noisy to hold them 15 % apart.
	compileRepeats int
	probeSeconds   float64 // one per-layer rate probe
	probeReps      int     // repeats of one per-layer latency probe
	bulkCycles     int64   // cycles per call of the RepCut bulk-run probe
	// repcutOpsCap bounds the design a traced run partitions: MinCut
	// planning is super-linear (45 s on full-size r1), so a larger design is
	// probed at the smallest further scale that fits.
	repcutOpsCap int
}

func canonical(seconds float64) sizing {
	return sizing{scaleMul: 1, seconds: seconds, windows: 5, setupRepeats: 5, setupSeconds: 1, refCycles: 512, compileRepeats: 5,
		probeSeconds: 0.4, probeReps: 200, bulkCycles: 4096, repcutOpsCap: 30000}
}

// parallelism is P: partitions, batch workers and HTTP clients on workloads
// marked parallel. The baseline host has two CPUs.
func parallelism() int { return min(runtime.NumCPU(), 2) }

func (w *workload) workers() int {
	if w.parallel {
		return parallelism()
	}
	return 1
}

func (w *workload) scaledSpec(sz sizing) gen.Spec {
	s := w.spec
	s.Scale *= sz.scaleMul
	return s
}

// windowWork is the frozen work of one window: engine cycles, or requests
// per client.
func (w *workload) windowWork() int64 { return w.chunk * w.windowChunks }

// windows turns the timed budget into a window count: as many frozen
// windows as the nominal rate fits into it, never fewer than the sizing asks.
func (w *workload) windows(sz sizing) int {
	fit := w.rate * sz.seconds / float64(w.windowWork())
	return max(int(math.Round(fit)), sz.windows)
}

// moreSetUps says whether another set-up should run after n of them took
// spent seconds: the least count always, then cheap ones until the time
// allowance is used, to ten times the least.
func (sz sizing) moreSetUps(n int, spent float64) bool {
	return n < sz.setupRepeats || (spent < sz.setupSeconds && n < 10*sz.setupRepeats)
}

// inputs is what a workload's generator produces from its spec: the
// unoptimised dataflow graph (the reference model's input) and the FIRRTL
// text handed to the program under test.
type inputs struct {
	graph          *dfg.Graph
	src            string
	generate, emit time.Duration
}

func makeInputs(spec gen.Spec) (*inputs, error) {
	start := time.Now()
	g, err := gen.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name(), err)
	}
	generate := time.Since(start)
	start = time.Now()
	src, err := firrtl.Emit(g)
	if err != nil {
		return nil, fmt.Errorf("emit %s: %w", spec.Name(), err)
	}
	return &inputs{graph: g, src: src, generate: generate, emit: time.Since(start)}, nil
}

// metric is one reported number. Spread is the inter-quartile range over the
// median across this run's windows or repeats; Samples says how many values
// stand behind Value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run of one workload, the record -out appends and -compare
// reads.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// TraceDigest folds every output at every chunk boundary of one window
	// (httpService: every peek of every reply); all windows must agree.
	TraceDigest string `json:"trace_digest"`
	// WindowWork is the frozen work of one window: engine cycles, or
	// requests per client.
	WindowWork int64 `json:"window_work"`
	// WindowRates is cycles_per_s window by window, in time order: the
	// samples behind the median and its spread.
	WindowRates []float64         `json:"window_rates"`
	Metrics     map[string]metric `json:"metrics"`
	Host        hostInfo          `json:"host"`
}

// windowResult is what one replay of a workload's frozen work produced.
type windowResult struct {
	wall   time.Duration
	work   float64   // lane-cycles simulated
	ops    []float64 // latency of each timed operation, ms
	failed int64     // operations that returned an error
	digest string
}

// runner is a workload after set-up: an engine (or a server and its
// clients) ready to replay the frozen work.
type runner interface {
	// window resets to the initial state, replays the frozen work and
	// reports it. Spans go under parent when tr is non-nil.
	window(tr *tracer, parent int) (windowResult, error)
	// check replays the first cycles against the independent reference and
	// returns how many values it compared and how many differed.
	check(in *inputs, refCycles int) (compared, differed int64, err error)
	close()
}

// liveHeapMiB is HeapAlloc after two full collections; the second empties
// what the first moved to the sync.Pool victim caches (HTTP and JSON buffers),
// which otherwise come and go between runs.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runWorkload runs the timing protocol on one workload: set-up repeated and
// reported as the median, one discarded warm-up window, then the timed
// windows with a collection between them. With a tracer it also alternates
// untraced and traced windows and probes every layer (see layers.go).
func runWorkload(w *workload, sz sizing, seed int64, tr *tracer) (*result, error) {
	root := tr.begin(w.name, -1)
	defer tr.end(root)
	in, err := makeInputs(w.scaledSpec(sz))
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: seed, Trace: tr != nil, Metrics: map[string]metric{}, Host: host()}

	heapBefore := liveHeapMiB()
	var run runner
	var setups []float64
	setupSpan := tr.begin("setup", root)
	for spent := 0.0; sz.moreSetUps(len(setups), spent); spent += setups[len(setups)-1] {
		if run != nil {
			run.close()
		}
		start := time.Now()
		if run, err = setUp(w, in, seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	tr.end(setupSpan)
	defer run.close()
	res.WindowWork = w.windowWork()

	runSpan := tr.begin("run", root)
	if _, err := run.window(nil, -1); err != nil { // warm-up, discarded
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	var rates, reqRates, opMedians, allOps, tracedOver []float64
	digests := map[string]bool{}
	for i := 0; i < w.windows(sz); i++ {
		runtime.GC()
		wr, err := run.window(nil, -1)
		if err != nil {
			return nil, fmt.Errorf("%s: window %d: %w", w.name, i, err)
		}
		rates = append(rates, wr.work/wr.wall.Seconds())
		reqRates = append(reqRates, float64(len(wr.ops))/wr.wall.Seconds())
		opMedians = append(opMedians, median(wr.ops))
		allOps = append(allOps, wr.ops...)
		res.Attempted += int64(len(wr.ops))
		res.Failed += wr.failed
		digests[wr.digest] = true
		res.TraceDigest = wr.digest
		if tr != nil {
			runtime.GC()
			twr, err := run.window(tr, runSpan)
			if err != nil {
				return nil, fmt.Errorf("%s: traced window %d: %w", w.name, i, err)
			}
			tracedOver = append(tracedOver, wr.wall.Seconds()/twr.wall.Seconds())
			digests[twr.digest] = true
		}
	}
	tr.end(runSpan)
	heapAfter := liveHeapMiB()
	// Every window replays the same work from reset, so one digest.
	res.Attempted++
	if len(digests) != 1 {
		res.Failed++
		fmt.Printf("FAIL %s: %d distinct trace digests across windows\n", w.name, len(digests))
	}
	want, err := goldenDigest(w.name, seed, res.WindowWork)
	if err != nil {
		return nil, err
	}
	if want != "" && sz.scaleMul == 1 { // the digests are of the full-size designs
		res.Attempted++
		if res.TraceDigest != want {
			res.Failed++
			fmt.Printf("FAIL %s: trace digest %s, golden.json has %s\n", w.name, res.TraceDigest, want)
		}
	}

	compared, differed, err := run.check(in, sz.refCycles)
	if err != nil {
		return nil, fmt.Errorf("%s: reference check: %w", w.name, err)
	}
	res.Attempted += compared
	res.Failed += differed
	if differed > 0 {
		fmt.Printf("FAIL %s: %d of %d values differ from the reference\n", w.name, differed, compared)
	}

	res.WindowRates = rates
	m := res.Metrics
	m["setup_s"] = metric{Value: median(setups), Unit: "s", Spread: iqrFrac(setups), Samples: len(setups)}
	m["cycles_per_s"] = metric{Value: median(rates), Unit: "1/s", Spread: iqrFrac(rates), Samples: len(rates)}
	m["live_heap_mb"] = metric{Value: heapAfter - heapBefore, Unit: "MiB", Samples: 1}
	m["req_per_s"] = metric{Value: median(reqRates), Unit: "1/s", Spread: iqrFrac(reqRates), Samples: len(reqRates)}
	m["req_p50_ms"] = metric{Value: median(allOps), Unit: "ms", Spread: iqrFrac(opMedians), Samples: len(allOps)}

	if tr != nil {
		m["bench.window_iqr_frac"] = metric{Value: iqrFrac(rates), Unit: "frac", Samples: len(rates)}
		// Each traced window is held against the untraced one just before
		// it, so drift of the host between pairs cancels.
		m["trace.overhead_frac"] = metric{Value: 1 - median(tracedOver), Unit: "frac", Samples: len(tracedOver)}
		// Where the workload itself has too few operations for a p99, the
		// client probe supplies one from its own requests.
		if p99, err := percentile(allOps, 0.99); err == nil {
			m["client.req_p99_ms"] = metric{Value: p99, Unit: "ms", Samples: len(allOps)}
		}
		if err := probeLayers(w, in, sz, seed, run, tr, root, m); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// setUp takes FIRRTL text in memory to the first engine ready to step.
func setUp(w *workload, in *inputs, seed int64) (runner, error) {
	if w.kind == httpService {
		return setUpService(w, in, seed)
	}
	return setUpEngine(w, in, seed)
}
