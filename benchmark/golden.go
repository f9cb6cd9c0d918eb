package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden.json holds the trace digests of the canonical run. Simulated
// results are deterministic, so any commit must reproduce them exactly.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed int64 `json:"seed"`
	// P is the parallelism the digests were taken at; the service
	// workload's digest covers one request list per client.
	P       int `json:"p"`
	Digests map[string]struct {
		WindowWork  int64  `json:"window_work"`
		TraceDigest string `json:"trace_digest"`
	} `json:"digests"`
}

// goldenDigest returns the committed digest a run must reproduce, or "" when
// the run's seed, window size or parallelism is not the committed one.
func goldenDigest(workload string, seed, windowWork int64) (string, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("golden.json: %w", err)
	}
	d, ok := g.Digests[workload]
	if !ok || seed != g.Seed || windowWork != d.WindowWork || parallelism() != g.P {
		return "", nil
	}
	return d.TraceDigest, nil
}
