package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// contract is the part of BENCHMARK.json the program reads: which metrics
// exist, their direction and the bound by which each may worsen.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// compareFiles prints one row per (workload, end-to-end metric) present in
// both result files — each side's median over its untraced records, the
// change, the spread of the first file's records — and a verdict against the
// metric's bound: worse beyond it, unresolved when the spread itself exceeds
// it, ok otherwise. A side with more failed operations is worse whatever its
// timings. It reports whether any row is worse.
func compareFiles(out io.Writer, contractPath, pathA, pathB string) (worse bool, err error) {
	c, err := readContract(contractPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-18s %-14s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, w := range c.Workloads {
		ra, rb := untraced(a, w.Name), untraced(b, w.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range c.EndToEnd {
			va, spread := column(ra, m.Name)
			vb, _ := column(rb, m.Name)
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma // positive = worse
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict, worse = "worse", true
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-18s %-14s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma, mb, change*100, spread*100, m.Bound*100, verdict)
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		verdict := "ok"
		if fb > fa {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(out, "%-18s %-14s %14.6g %14.6g %9s %8s %7s  %s\n", w.Name, "failed_frac", fa, fb, "", "", "any", verdict)
		if da, db := digestsOf(ra), digestsOf(rb); da != db {
			fmt.Fprintf(out, "%-18s %-14s %14s %14s  (differ: seeds, window sizes or simulated results)\n", w.Name, "trace_digest", da, db)
		}
	}
	return worse, nil
}

func untraced(records []result, workload string) []result {
	var out []result
	for _, r := range records {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

// column collects one metric over records. With several records the spread
// is theirs (quartile distance over median); with one it is the spread the
// record's own windows showed.
func column(records []result, name string) (values []float64, spread float64) {
	for _, r := range records {
		values = append(values, r.Metrics[name].Value)
	}
	if len(records) == 1 {
		return values, records[0].Metrics[name].Spread
	}
	return values, iqrFrac(values)
}

func failedFrac(records []result) float64 {
	var failed, attempted int64
	for _, r := range records {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// digestsOf names the one digest all records share, or says they differ.
func digestsOf(records []result) string {
	d := records[0].TraceDigest
	for _, r := range records[1:] {
		if r.TraceDigest != d {
			return "mixed"
		}
	}
	return d
}
