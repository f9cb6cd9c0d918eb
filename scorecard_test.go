package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestScorecardCitesBenchmarkMetrics holds README's "Paper scorecard" to
// BENCHMARK.json: the table has one row for each of the paper's Tables 1 and
// 3–7 and Figures 7, 8, 12 and 15–21, every backticked name in its "Metric
// here" column is an end-to-end or per-layer metric of the benchmark (a `*`
// stands for any run of characters, for a family such as the kernel ladder),
// and a row that cites none says it is not measured here and names the
// ROADMAP entry that would measure it.
func TestScorecardCitesBenchmarkMetrics(t *testing.T) {
	var contract struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	var metrics []string
	for _, m := range append(contract.EndToEnd, contract.PerLayer...) {
		metrics = append(metrics, m.Name)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Paper scorecard\n")
	if !ok {
		t.Fatal(`README has no "## Paper scorecard" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")

	metricCol := -1
	var rows []string
	backticked := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case metricCol < 0:
			metricCol = slices.Index(cells, "Metric here")
			if metricCol < 0 {
				t.Fatalf("scorecard header has no \"Metric here\" column: %s", line)
			}
			continue
		case strings.Trim(cells[0], "-: ") == "":
			continue // the delimiter row
		case len(cells) <= metricCol:
			t.Errorf("scorecard row has %d cells: %s", len(cells), line)
			continue
		}
		rows = append(rows, cells[0])
		cited := backticked.FindAllStringSubmatch(cells[metricCol], -1)
		if len(cited) == 0 && !(strings.Contains(cells[metricCol], "not measured here") &&
			strings.Contains(cells[metricCol], "ROADMAP")) {
			t.Errorf("%s cites no metric and does not say which ROADMAP entry would measure it: %q",
				cells[0], cells[metricCol])
		}
		for _, c := range cited {
			pattern := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(c[1]), `\*`, ".*") + "$")
			if !slices.ContainsFunc(metrics, pattern.MatchString) {
				t.Errorf("%s cites `%s`, which is no metric of BENCHMARK.json", cells[0], c[1])
			}
		}
	}

	want := []string{"Table 1", "Table 3", "Figure 7", "Figure 8", "Figure 12", "Table 4",
		"Table 5", "Table 6", "Figure 15", "Figure 16", "Figure 17", "Figure 18", "Figure 19",
		"Figure 20", "Figure 21", "Table 7"}
	if !slices.Equal(rows, want) {
		t.Errorf("scorecard rows %q, want %q", rows, want)
	}
}
