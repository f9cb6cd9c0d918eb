package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// What must not grow back. The paper's case rests on one small kernel that
// holds the circuit as data, and each deletion that kept it small removed a
// second path: a second evaluator, a second measuring instrument, a second
// route into an engine. Each row below keeps one of them out. A row is a
// reason, the files it reads and a matcher over their parsed syntax, so a
// comment that names a deleted identifier matches nothing, while a
// declaration, a use or an import of it does, however it is laid out. Every
// row carries the edits it must catch (its mutants), and
// TestGuardRowsCatchTheirMutants applies each one in memory.

// goTree is the module as the rows read it: every .go file parsed, keyed by
// its slash path from the module root, and the path of every file and
// directory.
type goTree struct {
	fset  *token.FileSet
	files map[string]*ast.File
	paths map[string]bool
}

// loadTree parses the module once per test binary.
var loadTree = sync.OnceValues(func() (*goTree, error) {
	tr := &goTree{fset: token.NewFileSet(), files: map[string]*ast.File{}, paths: map[string]bool{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		p = filepath.ToSlash(p)
		tr.paths[p] = true
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		return tr.parse(p, nil)
	})
	return tr, err
})

func (tr *goTree) parse(p string, src any) error {
	f, err := parser.ParseFile(tr.fset, p, src, parser.SkipObjectResolution)
	tr.files[p], tr.paths[p] = f, true
	return err
}

// A finder lists what a row forbids among the files in scope, as positions.
type finder func(tr *goTree, in func(path string) bool) []string

type guardRow struct {
	why     string
	in      func(path string) bool
	find    finder
	mutants []mutant
}

// A mutant is an edit a row must catch. With after set, the snippet goes
// into the file at path right after the first occurrence of after; with
// only a snippet, it is a new file at path; with neither, path is a new
// directory.
type mutant struct{ path, after, snippet string }

const (
	perfModel = "the analytical performance model that reproduced the paper's numbers by construction is deleted: " +
		"the paper's numbers are README's scorecard constants and ./benchmark is the one measuring instrument"
	leaf = "internal/testbench is a leaf (stimulus generators and the wire command schema): " +
		"the port layer is sim.Testbench, bound directly to a session or batch"
	opSemantics = "a per-op switch lives only where its loop shape is what the kernel ladder measures: " +
		"wire.go (the spec), swizzled.go and psu_iu.go (runGroup/runGroup8) and batch_sched.go"
	cascade1 = "settleRU (internal/kernel/rolled.go) is Cascade 1's one evaluator: the second one, " +
		"and the fibertree and format model only it read, are deleted"
	ownership = "register ownership is the planner's call in internal/repcut, or an explicit owner vector: " +
		"internal/partition, any pluggable Strategy and sim's enum that mirrored it are deleted"
	batchWorkers = "a batch's worker count is an argument of Design.NewBatchParallel, " +
		"not a compile option or a wire field (benchmark/ pins its own names)"
	noCaller = "nothing is kept for a caller that does not exist: the OIM is written, never read back; " +
		"the service's bounds are constants; a resolved signal carries no mask (PokeSlot masks every poke)"
	noRouting = "a RepCut plan routes no write: every partition gets every poke and input, " +
		"so it keeps no per-slot list of partitions to poke"
	oneSweep = "a RepCut plan has one fan-in mechanism, fanIn.sweep, labelled per register, per output or per partition: " +
		"the slot-by-slot cone walk is the tests' oracle, not a second path in the plan"
	batchBind = "a batch is state and the schedule is the program: nothing per instruction, register or slot " +
		"is bound to a batch, and no store is a slice header per slot"
	lease = "a server lease mints its engine on open and closes it on release: " +
		"sim.Pool, its idle reaper, its pool clock and its error values are deleted"
	bulkRun = "an engine runs the RunSpec it is handed in one dispatch and polls nothing: " +
		"sim's advance is the one loop that cuts a run into chunks and polls a cancel probe"
	pokePlan = "a run carries no plan of precomputed pokes: the engine calls RunSpec.Stim itself"
	oneRoute = "an engine is reached through its slots (PokeSlot, PeekSlot, mint with NewProgram + Instantiate) " +
		"and advanced by whole cycles (Step, RunBulk): a second route into it is deleted"
	oneElaboration = "the FIRRTL elaborator declares each instance where it is declared, under its instance path: " +
		"the flattened copy of the hierarchy with every name rewritten, and a second resolver for nodes, are deleted"
	streamingLexer = "the FIRRTL parser pulls each token from the lexer as it needs it: " +
		"the whole-source lex into a token slice is the tests' oracle, not a pass before parsing"
	failureCached = "a compile is a pure function of its source, so a failed one is a cache entry answered 422 at once: " +
		"the server's compile circuit breaker, its knobs and flags, its 503 and degraded readiness, and the injected compile failure that fed it are deleted"
	oneOrder = "a dfg.Graph lists every operand before its user, so its id order is its topological order: " +
		"the second order, TopoOrder, and its cache on Graph and Interp are deleted"
	kernelLadder = "the seven §5.2 kernels compute the same bits, so a kernel is chosen only where the ladder is measured, in process: " +
		"the wire's kernel option, rteaal -kernel and -list-kernels, ParseKernel and ParseKind, and the examples' pinned kernels are deleted"
	ladderBelowSim = "the §5.2 ladder is seven mappings of one tensor, lowered below sim with kernel.NewProgram: " +
		"sim.WithKernel is named only in sim and benchmark/, never in cmd/, internal/ or examples/"
	onePipeline = "the compile pipeline (the default dfg passes, levelization, the OIM build) is written once, in oim.Compile: " +
		"outside internal/dfg and benchmark/, no other non-test code names dfg.DefaultOptOptions or dfg.Levelize"
	measuredOnce = "each ablation is measured where it is answered (the benchmark's rungs, examples/ablation, BenchmarkMuxChainFusion): " +
		"the module root's bench_test.go, which timed the same questions a second way, is deleted"
	figure12b = "oim.Arrays is Figure 12b, the lowering RU and OU walk; TestFootprintOrdering counts 12a's bytes: " +
		"the payload arrays 12b elides and Lower's optimized flag are deleted"
)

var guardRows = []guardRow{
	{perfModel, everyFile, absent("internal/bench internal/perf internal/machines internal/codegen cmd/rteaal-bench"),
		[]mutant{{path: "internal/bench"}}},
	{perfModel, everyFile, imports("rteaal/internal/bench rteaal/internal/perf rteaal/internal/machines rteaal/internal/codegen rteaal/cmd/rteaal-bench"),
		[]mutant{{path: "benchmark/model_test.go", snippet: `import _ "rteaal/internal/perf"`}}},
	{leaf, pkg("internal/testbench"), imports("rteaal/"),
		[]mutant{{path: "internal/testbench/port.go", snippet: `import "rteaal/internal/kernel"`}}},
	{opSemantics, func(p string) bool {
		return pkg("internal/kernel internal/wire")(p) && !oneOf("wire.go swizzled.go psu_iu.go batch_sched.go")(path.Base(p))
	}, caseLabel("wire", "Add"),
		[]mutant{{path: "internal/kernel/fifth.go", snippet: "func f(op wire.Op) {\n\tswitch op {\n\tcase wire.Sub, wire.Add:\n\t}\n}"}}},
	{cascade1, func(p string) bool { return code(p) && p != "internal/kernel/rolled.go" }, selector("wire", "MapStep ReduceStep PopulateGather"),
		[]mutant{{path: "internal/kernel/eval.go", snippet: "func f() { wire.MapStep(nil, nil, 0) }"}}},
	{cascade1, everyFile, absent("internal/einsum internal/fibertree internal/teaal"),
		[]mutant{{path: "internal/fibertree"}}},
	{ownership, everyFile, absent("internal/partition sim/strategy.go"),
		[]mutant{{path: "internal/partition"}, {path: "sim/strategy.go", snippet: "type partitioner int"}}},
	{ownership, code, typeDecls("Strategy"),
		[]mutant{{path: "internal/repcut/strategy.go", snippet: "type (\n\tStrategy interface{ Owners() []int }\n)"}}},
	{batchWorkers, codeOutsideBenchmark, identPart("WithBatchWorkers"),
		[]mutant{{path: "sim/options.go", snippet: "func WithBatchWorkers(n int) Option { return nil }"}}},
	{batchWorkers, codeOutsideBenchmark, literal("batch_workers"),
		[]mutant{{path: "internal/server/api.go", after: "json:\"partitions,omitempty\"`\n", snippet: "\tWorkers int `json:\"batch_workers,omitempty\"`\n"}}},
	{noCaller, pkg("internal/oim"), funcs("", "ReadJSON"),
		[]mutant{{path: "internal/oim/read.go", snippet: "func ReadJSON(r io.Reader) (*Tensor, error) { return nil, nil }"}}},
	{noCaller, pkg("internal/server"), members("Config", "MaxLanes MaxCommandsPerRequest MaxCyclesPerCommand MaxSourceBytes MaxLogEntries DrainRetryAfter"),
		[]mutant{{path: "internal/server/server.go", after: "type Config struct {\n", snippet: "\tMaxLogEntries int\n"}}},
	{noCaller, pkg("internal/kernel"), members("Signal", "Mask"),
		[]mutant{{path: "internal/kernel/signals.go", after: "type Signal struct {\n", snippet: "\tMask uint64\n"}}},
	{noRouting, pkg("internal/repcut"), ident("userStart userParts"),
		[]mutant{{path: "internal/repcut/repcut.go", after: "type Plan struct {\n", snippet: "\tuserStart []int32\n"}}},
	{noRouting, pkg("internal/repcut"), funcs("Plan", "users"),
		[]mutant{{path: "internal/repcut/users.go", snippet: "func (plan Plan) users(slot int32) []int32 { return nil }"}}},
	{oneSweep, pkg("internal/repcut"), funcs("fanIn", "cone"),
		[]mutant{{path: "internal/repcut/cone.go", snippet: "func (f *fanIn) cone(roots ...int32) []int32 { return nil }"}}},
	{batchBind, batchFiles, identPart("boundOp boundCommit bindOps bindCommits bindOuts"),
		[]mutant{{path: "internal/kernel/batch.go", after: "type Batch struct {\n", snippet: "\tops []boundOp\n"}}},
	{batchBind, batchFiles, typeExpr("[][]uint64"),
		[]mutant{{path: "internal/kernel/batch.go", after: "type Batch struct {\n", snippet: "\tslots [][]uint64\n"}}},
	{lease, pkgWithTests("sim"), typeDecls("Pool"),
		[]mutant{{path: "sim/pool_test.go", snippet: "type Pool struct{}"}}},
	{lease, pkgWithTests("sim"), funcs("", "NewPool"),
		[]mutant{{path: "sim/pool.go", snippet: "func NewPool(d *Design, n int) *pool { return nil }"}}},
	{lease, code, identPart("ReapIdle PoolIdleTTL ErrPool"),
		[]mutant{{path: "internal/server/reap.go", snippet: "func (s *Server) reap() { s.cfg.PoolIdleTTL = 0 }"}}},
	{bulkRun, everyFile, identPart("RunChunked rebasePokes SpecRunner runBulkOnce"),
		[]mutant{{path: "sim/chunked_test.go", snippet: "func TestChunks(t *testing.T) { s.eng.RunChunked(spec, 64) }"}}},
	{bulkRun, under("internal/kernel internal/repcut"), ident("Cancel"),
		[]mutant{{path: "internal/repcut/repcut.go", after: "eng.RunBulk(kernel.RunSpec{", snippet: "Cancel: nil, "}}},
	{pokePlan, everyFile, identPart("PlannedPoke SortedPokes planBudget"),
		[]mutant{{path: "internal/kernel/pokes.go", snippet: "type PlannedPoke struct{ Cycle int64 }"}}},
	{oneRoute, pkg("internal/kernel internal/repcut"), funcs("state engine Batch Instance", "PokeInput RegSnapshot Name Settle"),
		[]mutant{{path: "internal/kernel/regs.go", snippet: "func (b *Batch) RegSnapshot(lane int) []uint64 { return nil }"}}},
	{oneRoute, oneOf("internal/kernel/kernel.go"), ident("PokeInput RegSnapshot Name Settle"),
		[]mutant{{path: "internal/kernel/kernel.go", after: "type Engine interface {\n", snippet: "\tSettle()\n"}}},
	{oneRoute, pkg("internal/kernel"), funcs("", "New"),
		[]mutant{{path: "internal/kernel/new.go", snippet: "func New(t *oim.Tensor, cfg Config) (Engine, error) { return nil, nil }"}}},
	{oneRoute, pkg("internal/kernel"), funcs("Workers", "Do"),
		[]mutant{{path: "internal/kernel/do.go", snippet: "func (w *Workers) Do(f func(int)) {}"}}},
	{oneRoute, pkg("internal/kernel"), funcs("Batch", "Step SettleReference"),
		[]mutant{{path: "internal/kernel/step.go", snippet: "func (b *Batch) Step() { b.Run(1) }"}}},
	{oneRoute, pkg("sim"), funcs("Session Batch", "Settle"),
		[]mutant{{path: "sim/settle.go", snippet: "func (s *Session) Settle() error { return nil }"}}},
	{oneRoute, oneOf("sim/session.go"), identPart("waveEngine"),
		[]mutant{{path: "sim/session.go", after: "type Session struct {\n", snippet: "\twaveEngine kernel.Engine\n"}}},
	{oneElaboration, pkg("internal/firrtl"), funcs("", "flatten inline prefixStmt prefixExpr"),
		[]mutant{
			{path: "internal/firrtl/flatten.go", snippet: "func flatten(c *Circuit) (*Module, error) { return nil, nil }"},
			{path: "internal/firrtl/elaborate.go", after: "const maxInstanceDepth = 64\n", snippet: "\nfunc prefixExpr(e Expr, prefix string) Expr { return e }\n"},
		}},
	{oneElaboration, pkg("internal/firrtl"), funcs("elaborator", "resolveNet resolveNode"),
		[]mutant{{path: "internal/firrtl/resolve.go", snippet: "func (e *elaborator) resolveNode(name string, b *binding) (dfg.NodeID, error) { return 0, nil }"}}},
	{streamingLexer, pkg("internal/firrtl"), funcs("", "lex"),
		[]mutant{{path: "internal/firrtl/lex.go", snippet: "func lex(src string) ([]token, error) { return nil, nil }"}}},
	{streamingLexer, pkg("internal/firrtl"), members("parser", "toks"),
		[]mutant{{path: "internal/firrtl/parser.go", after: "type parser struct {\n", snippet: "\ttoks []token\n"}}},
	{failureCached, pkg("internal/server cmd/rteaal-serve internal/faultinject"), anyOf(
		ident("breakerState errCircuitOpen KindCircuitOpen CompileFailLimit BreakerCooldown CompileFail"),
		literal("degraded"), literal("compile-fail-limit"), literal("breaker-cooldown")),
		[]mutant{
			{path: "internal/server/cache.go", after: "type designCache struct {\n", snippet: "\tbreakers map[string]*breakerState\n"},
			{path: "internal/server/circuit.go", snippet: "type errCircuitOpen struct{ retryAfter time.Duration }"},
			{path: "internal/server/api.go", after: "const (\n", snippet: "\tKindCircuitOpen = \"circuit_open\"\n"},
			{path: "internal/server/server.go", after: "type Config struct {\n", snippet: "\tCompileFailLimit int\n\tBreakerCooldown time.Duration\n"},
			{path: "internal/server/server.go", after: "func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {\n", snippet: "\t_ = \"degraded\"\n"},
			{path: "cmd/rteaal-serve/main.go", after: "func main() {\n", snippet: "\tflag.Int(\"compile-fail-limit\", 3, \"\")\n"},
			{path: "cmd/rteaal-serve/main.go", after: "func main() {\n", snippet: "\tflag.Duration(\"breaker-cooldown\", 0, \"\")\n"},
			{path: "internal/faultinject/faultinject.go", after: "const (\n", snippet: "\tCompileFail Point = \"compile-fail\"\n"},
		}},
	{oneOrder, pkg("internal/dfg"), anyOf(ident("TopoOrder"), members("Graph", "topo"), members("Interp", "topo")),
		[]mutant{
			{path: "internal/dfg/topo.go", snippet: "func (g *Graph) TopoOrder() ([]NodeID, error) { return nil, nil }"},
			{path: "internal/dfg/graph.go", after: "type Graph struct {\n", snippet: "\ttopo []NodeID\n"},
			{path: "internal/dfg/interp.go", after: "type Interp struct {\n", snippet: "\ttopo []NodeID\n"},
		}},
	{kernelLadder, pkg("sim internal/kernel"), funcs("", "ParseKernel ParseKind"),
		[]mutant{
			{path: "sim/parse.go", snippet: "func ParseKernel(s string) (Kernel, error) { return IU, nil }"},
			{path: "internal/kernel/kernel.go", after: "func Kinds() []Kind { return []Kind{RU, OU, NU, PSU, IU, SU, TI} }\n", snippet: "\nfunc ParseKind(s string) (Kind, error) { return 0, nil }\n"},
		}},
	{kernelLadder, pkg("internal/server"), members("CompileOptions", "Kernel"),
		[]mutant{{path: "internal/server/api.go", after: "type CompileOptions struct {\n", snippet: "\tKernel string `json:\"kernel,omitempty\"`\n"}}},
	{kernelLadder, pkg("cmd/rteaal"), anyOf(literal("kernel"), literal("list-kernels")),
		[]mutant{
			{path: "cmd/rteaal/main.go", after: "func run() error {\n", snippet: "\tflag.String(\"kernel\", \"\", \"kernel configuration\")\n"},
			{path: "cmd/rteaal/main.go", after: "func run() error {\n", snippet: "\tflag.Bool(\"list-kernels\", false, \"list the kernels\")\n"},
		}},
	{ladderBelowSim, under("cmd internal examples"), ident("WithKernel"),
		[]mutant{
			{path: "examples/quickstart/main.go", after: "sim.Compile(src", snippet: ", sim.WithKernel(sim.PSU)"},
			{path: "examples/ablation/main.go", after: "func main() {\n", snippet: "\t_ = sim.WithKernel(sim.PSU)\n"},
			{path: "internal/server/api.go", after: "func (o CompileOptions) SimOptions() ([]sim.Option, error) {\n", snippet: "\t_ = sim.WithKernel(sim.TI)\n"},
			{path: "internal/difftest/difftest.go", after: "func legs() []leg {\n", snippet: "\t_ = sim.WithKernel(sim.RU)\n"},
			{path: "internal/difftest/matrix_test.go", snippet: "var opts = []sim.Option{sim.WithKernel(sim.NU)}"},
			{path: "cmd/rteaal/main.go", after: "var opts []sim.Option\n", snippet: "\topts = append(opts, sim.WithKernel(sim.PSU))\n"},
		}},
	{onePipeline, func(p string) bool {
		return codeOutsideBenchmark(p) && !strings.HasPrefix(p, "internal/dfg/") && p != "internal/oim/compile.go"
	}, selector("dfg", "DefaultOptOptions Levelize"),
		[]mutant{
			{path: "sim/design.go", after: "func CompileGraph(g *dfg.Graph, opts ...Option) (*Design, error) {\n", snippet: "\t_, _ = dfg.Levelize(g)\n"},
			{path: "internal/difftest/difftest.go", after: "func legs() []leg {\n", snippet: "\t_ = dfg.DefaultOptOptions()\n"},
			{path: "examples/repcut/main.go", after: "func main() {\n", snippet: "\t_, _ = dfg.Optimize(nil, dfg.DefaultOptOptions())\n"},
			{path: "internal/oim/build.go", snippet: "func compile(g *dfg.Graph) { lv, _ := dfg.Levelize(g); _, _ = Build(lv) }"},
		}},
	{measuredOnce, everyFile, absent("bench_test.go"),
		[]mutant{{path: "bench_test.go", snippet: "func BenchmarkKernelIU(b *testing.B) { benchKernelCycle(b, kernel.Config{Kind: kernel.IU}) }"}}},
	{figure12b, code, ident("SPayload OPayload RPayload"),
		[]mutant{
			{path: "internal/oim/arrays.go", after: "type Arrays struct {\n", snippet: "\tSPayload []int32\n\tOPayload []int32\n"},
			{path: "internal/kernel/program.go", after: "p.arrays = t.Lower()\n", snippet: "\t\t_ = p.arrays.RPayload\n"},
		}},
	{figure12b, pkg("internal/oim"), ident("optimized"),
		[]mutant{{path: "internal/oim/arrays.go", after: "func (t *Tensor) Lower(", snippet: "optimized bool"}}},
}

// harmless edits every row passes: the rows read code, not comments.
var harmless = []mutant{
	{path: "sim/testbench.go", after: "package sim\n", snippet: "\n// RunChunked is gone\n"},
	{path: "sim/session.go", after: "package sim\n", snippet: "\n// A waveEngine stepped a recording run; Session.Settle and Workers.Do are gone too.\n"},
}

// TestNothingDeletedGrowsBack holds the module to every row.
func TestNothingDeletedGrowsBack(t *testing.T) {
	tr, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range guardRows {
		if found := r.find(tr, r.in); len(found) > 0 {
			t.Errorf("%s; found:\n\t%s", r.why, strings.Join(found, "\n\t"))
		}
	}
}

// TestGuardRowsCatchTheirMutants applies each row's mutants to the parsed
// module in memory: a mutant must fail its own row and no other, and a
// harmless edit must fail none. A row reports file by file and the module
// passes every row (TestNothingDeletedGrowsBack), so each edit is checked
// on the one file or path it touches.
func TestGuardRowsCatchTheirMutants(t *testing.T) {
	pristine, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	check := func(m mutant, want int) {
		tr, err := m.apply(pristine)
		if err != nil {
			t.Fatalf("mutant %s: %v", m.path, err)
		}
		for i, r := range guardRows {
			if failed := len(r.find(tr, r.in)) > 0; failed != (i == want) {
				t.Errorf("mutant %s %q: row %d (%.60s…) failed = %v", m.path, m.snippet, i, r.why, failed)
			}
		}
	}
	for i, r := range guardRows {
		if len(r.mutants) == 0 {
			t.Errorf("row %d (%.60s…) carries no mutant", i, r.why)
		}
		for _, m := range r.mutants {
			check(m, i)
		}
	}
	for _, m := range harmless {
		check(m, -1)
	}
}

// apply returns the file or path the mutant adds to tr, or the file it
// edits, as a tree of its own.
func (m mutant) apply(tr *goTree) (*goTree, error) {
	out := &goTree{fset: tr.fset, files: map[string]*ast.File{}, paths: map[string]bool{}}
	switch {
	case m.after != "":
		src, err := os.ReadFile(m.path)
		if err != nil {
			return nil, err
		}
		i := strings.Index(string(src), m.after)
		if i < 0 {
			return nil, fmt.Errorf("%q not found", m.after)
		}
		i += len(m.after)
		return out, out.parse(m.path, string(src[:i])+m.snippet+string(src[i:]))
	case m.snippet != "":
		if tr.paths[m.path] {
			return nil, fmt.Errorf("already exists")
		}
		return out, out.parse(m.path, "package p\n\n"+m.snippet+"\n")
	}
	out.paths[m.path] = true
	return out, nil
}

// Scopes: the files a row reads, by slash path from the module root.

func everyFile(string) bool { return true }

func code(p string) bool { return !strings.HasSuffix(p, "_test.go") }

func codeOutsideBenchmark(p string) bool { return code(p) && !strings.HasPrefix(p, "benchmark/") }

// batchFiles is internal/kernel/batch*.go without its tests.
func batchFiles(p string) bool {
	return pkg("internal/kernel")(p) && strings.HasPrefix(path.Base(p), "batch")
}

// pkg is the non-test files of the packages in dirs, not of their
// subdirectories.
func pkg(dirs string) func(string) bool {
	inDirs := oneOf(dirs)
	return func(p string) bool { return code(p) && inDirs(path.Dir(p)) }
}

// pkgWithTests is every file of the packages in dirs, tests included.
func pkgWithTests(dirs string) func(string) bool {
	inDirs := oneOf(dirs)
	return func(p string) bool { return inDirs(path.Dir(p)) }
}

// under is every file below dirs, tests and subdirectories included.
func under(dirs string) func(string) bool {
	ds := strings.Fields(dirs)
	return func(p string) bool {
		return slices.ContainsFunc(ds, func(d string) bool { return strings.HasPrefix(p, d+"/") })
	}
}

// oneOf reports whether a string is one of the space-separated words; as a
// scope, it is exactly these files.
func oneOf(words string) func(string) bool {
	ws := strings.Fields(words)
	return func(s string) bool { return slices.Contains(ws, s) }
}

// Matchers. Names and paths are space-separated lists.

// absent: none of these files or directories exists.
func absent(paths string) finder {
	ps := strings.Fields(paths)
	return func(tr *goTree, _ func(string) bool) (found []string) {
		for _, p := range ps {
			if tr.paths[p] {
				found = append(found, p+" exists")
			}
		}
		return found
	}
}

// syntax walks each file in scope and reports the nodes visit hits.
func syntax(visit func(n ast.Node, hit func(ast.Node))) finder {
	return func(tr *goTree, in func(string) bool) (found []string) {
		hit := func(n ast.Node) { found = append(found, tr.fset.Position(n.Pos()).String()) }
		for p, f := range tr.files {
			if in(p) {
				ast.Inspect(f, func(n ast.Node) bool {
					if n != nil {
						visit(n, hit)
					}
					return true
				})
			}
		}
		sort.Strings(found)
		return found
	}
}

// anyOf: what any of these finders finds.
func anyOf(fs ...finder) finder {
	return func(tr *goTree, in func(string) bool) (found []string) {
		for _, f := range fs {
			found = append(found, f(tr, in)...)
		}
		return found
	}
}

// imports: an import of one of these paths, or of any path under one that
// ends in "/".
func imports(paths string) finder {
	ps := strings.Fields(paths)
	return syntax(func(n ast.Node, hit func(ast.Node)) {
		s, ok := n.(*ast.ImportSpec)
		if !ok {
			return
		}
		p, _ := strconv.Unquote(s.Path.Value)
		if slices.ContainsFunc(ps, func(w string) bool {
			return p == w || strings.HasSuffix(w, "/") && strings.HasPrefix(p, w)
		}) {
			hit(s)
		}
	})
}

// funcs: a function (recvs "") or a method on one of the receiver types
// recvs, pointer or not, with one of these names.
func funcs(recvs, names string) finder {
	isRecv, isName := oneOf(recvs), oneOf(names)
	return syntax(func(n ast.Node, hit func(ast.Node)) {
		d, ok := n.(*ast.FuncDecl)
		if !ok || !isName(d.Name.Name) {
			return
		}
		if d.Recv == nil && recvs == "" || d.Recv != nil && isRecv(recvName(d.Recv.List[0].Type)) {
			hit(d.Name)
		}
	})
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// typeDecls: a type declared with one of these names, at any level.
func typeDecls(names string) finder {
	isName := oneOf(names)
	return syntax(func(n ast.Node, hit func(ast.Node)) {
		if s, ok := n.(*ast.TypeSpec); ok && isName(s.Name.Name) {
			hit(s.Name)
		}
	})
}

// members: a field of the struct type, or a method of the interface type,
// named typ, with one of these names.
func members(typ, names string) finder {
	isName := oneOf(names)
	return syntax(func(n ast.Node, hit func(ast.Node)) {
		s, ok := n.(*ast.TypeSpec)
		if !ok || s.Name.Name != typ {
			return
		}
		var fields *ast.FieldList
		switch t := s.Type.(type) {
		case *ast.StructType:
			fields = t.Fields
		case *ast.InterfaceType:
			fields = t.Methods
		default:
			return
		}
		for _, f := range fields.List {
			for _, id := range f.Names {
				if isName(id.Name) {
					hit(id)
				}
			}
		}
	})
}

// ident: an identifier, declared or used (a selector's name included), that
// is one of these names.
func ident(names string) finder {
	isName := oneOf(names)
	return syntax(func(n ast.Node, hit func(ast.Node)) {
		if id, ok := n.(*ast.Ident); ok && isName(id.Name) {
			hit(id)
		}
	})
}

// identPart: an identifier that contains one of these names.
func identPart(names string) finder {
	ws := strings.Fields(names)
	return syntax(func(n ast.Node, hit func(ast.Node)) {
		id, ok := n.(*ast.Ident)
		if ok && slices.ContainsFunc(ws, func(w string) bool { return strings.Contains(id.Name, w) }) {
			hit(id)
		}
	})
}

// selector: pkg.Name for one of these names, called or not.
func selector(pkg, names string) finder {
	isName := oneOf(names)
	return syntax(func(n ast.Node, hit func(ast.Node)) {
		if isSelector(n, pkg, isName) {
			hit(n)
		}
	})
}

func isSelector(n ast.Node, pkg string, isName func(string) bool) bool {
	s, ok := n.(*ast.SelectorExpr)
	if !ok || !isName(s.Sel.Name) {
		return false
	}
	x, ok := s.X.(*ast.Ident)
	return ok && x.Name == pkg
}

// caseLabel: a case clause that lists one of these names, bare or as
// pkg.Name.
func caseLabel(pkg, names string) finder {
	isName := oneOf(names)
	return syntax(func(n ast.Node, hit func(ast.Node)) {
		c, ok := n.(*ast.CaseClause)
		if !ok {
			return
		}
		for _, e := range c.List {
			if id, ok := e.(*ast.Ident); ok && isName(id.Name) || isSelector(e, pkg, isName) {
				hit(e)
			}
		}
	})
}

// literal: a string literal or struct tag that is name, or holds it as a
// quoted key or tag value ("name" or "name,…").
func literal(name string) finder {
	return syntax(func(n ast.Node, hit func(ast.Node)) {
		l, ok := n.(*ast.BasicLit)
		if !ok || l.Kind != token.STRING {
			return
		}
		v, _ := strconv.Unquote(l.Value)
		if v == name || strings.Contains(v, `"`+name+`"`) || strings.Contains(v, `"`+name+`,`) {
			hit(l)
		}
	})
}

// typeExpr: a slice or array type written exactly as text.
func typeExpr(text string) finder {
	return syntax(func(n ast.Node, hit func(ast.Node)) {
		if a, ok := n.(*ast.ArrayType); ok && types.ExprString(a) == text {
			hit(a)
		}
	})
}
