// Command benchmark is the repository's one canonical benchmark: five
// workloads, each driven through the public sim surface (or sim/client), an
// output check against an independent reference, and a per-layer ladder from
// FIRRTL text to the HTTP client. See README.md beside this file for the
// metric glossary and BENCHMARK.json at the repository root for the contract.
//
//	go run ./benchmark --workload soc_scalar --seed 1 --seconds 10 --trace 0
//	go run ./benchmark                      # every workload, untraced
//	go run ./benchmark --trace 1            # every workload, traced, per-layer metrics
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo describes where a number was measured; numbers from different
// hosts do not compare.
type hostInfo struct {
	CPUs       int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without git history (the acceptance driver's) has no
	// commit to report.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all five")
		seed    = flag.Int64("seed", 1, "seed of every generated stimulus value, poke and script")
		seconds = flag.Float64("seconds", 10, "timed budget per workload, split over the windows")
		trace   = flag.Int("trace", 0, "1 records spans around each call into a layer and reports the per-layer metrics")
		out     = flag.String("out", "", "append each workload's result record to this JSON file")
		spans   = flag.String("spans", filepath.Join(".bench_build", "spans.json"), "where a traced run writes its spans")
		compare = flag.Bool("compare", false, "compare two result files given as arguments against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		selected = []workload{*w}
	}
	sz := canonical(*seconds)
	var tr *tracer
	if *trace != 0 {
		// A traced run times each window twice, with and without spans, so
		// it runs half as many.
		sz.windows, sz.seconds = 3, *seconds/2
		sz.setupRepeats, sz.setupSeconds = 1, 0
	}
	// The contract's last line: with one workload its metrics, value and
	// unit only; with all five the metrics are in the lines above and the
	// last line carries the totals.
	last := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	var allSpans []span
	for i := range selected {
		w := &selected[i]
		if *trace != 0 {
			tr = newTracer(w.name)
		}
		res, err := runWorkload(w, sz, *seed, tr)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatal(err)
			}
		}
		if tr != nil {
			printSelfTimes(tr.spans)
			allSpans = append(allSpans, tr.spans...)
		}
		last.Correct = last.Correct && res.Correct
		last.Attempted += res.Attempted
		last.Failed += res.Failed
		if len(selected) == 1 {
			for n, m := range emitted(res) {
				last.Metrics[n] = map[string]any{"value": m.Value, "unit": m.Unit}
			}
		}
	}
	if *trace != 0 {
		if err := writeSpans(*spans, allSpans); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !last.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printResult prints every metric of one run by name with its unit.
func printResult(r *result) {
	fmt.Printf("== %s seed=%d trace=%v window_work=%d trace_digest=%s\n", r.Workload, r.Seed, r.Trace, r.WindowWork, r.TraceDigest)
	fmt.Printf("   host: nproc=%d GOMAXPROCS=%d cpu=%q %s commit=%s\n", r.Host.CPUs, r.Host.GOMAXPROCS, r.Host.CPUModel, r.Host.GoVersion, r.Host.Commit)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("   %-44s %16.6g %-6s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Printf(" n=%d", m.Samples)
		}
		if m.Spread > 0 {
			fmt.Printf(" iqr=%.2f%%", m.Spread*100)
		}
		fmt.Println()
	}
	frac := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Printf("   %-44s %16.6g %-6s n=%d\n", "failed_frac", frac, "frac", r.Attempted)
}

// printSelfTimes sums duration and self time per span name.
func printSelfTimes(spans []span) {
	type row struct {
		count       int
		total, self int64
	}
	rows := map[string]*row{}
	for i, self := range selfTimes(spans) {
		r := rows[spans[i].Name]
		if r == nil {
			r = &row{}
			rows[spans[i].Name] = r
		}
		r.count++
		r.total += spans[i].End - spans[i].Start
		r.self += self
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("   %-32s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		r := rows[n]
		fmt.Printf("   %-32s %8d %12.3f %12.3f\n", n, r.count, float64(r.total)/1e6, float64(r.self)/1e6)
	}
}

// appendResult adds one record to a result file, a JSON array.
func appendResult(path string, r *result) error {
	records, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	records = append(records, *r)
	data, err := json.MarshalIndent(records, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResults(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var records []result
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return records, nil
}

// endToEnd names the metrics an untraced run reports, the ones with a bound
// in BENCHMARK.json. A traced run's timings are not comparable with them, so
// it reports every other metric instead.
var endToEnd = []string{"setup_s", "cycles_per_s", "live_heap_mb", "req_per_s", "req_p50_ms"}

// emitted selects the metrics a run's last line carries: the end-to-end ones
// of an untraced run, the per-layer ones of a traced run.
func emitted(r *result) map[string]metric {
	bounded := map[string]bool{}
	for _, n := range endToEnd {
		bounded[n] = true
	}
	out := map[string]metric{}
	for n, m := range r.Metrics {
		if bounded[n] != r.Trace {
			out[n] = m
		}
	}
	return out
}
