package server

import (
	"encoding/json"
	"fmt"

	"rteaal/internal/testbench"
	"rteaal/sim"
)

// This file is the JSON surface of the session service: every request and
// response body exchanged on the wire, shared by the HTTP handlers and the
// Go client (sim/client). Command lists inside CommandsRequest use the
// testbench wire framing (internal/testbench.Command), which carries its
// own validator and fuzz target.

// CompileOptions is the wire form of the one sim compile option a client
// may select, sim.WithPartitions. The zero value compiles with the package
// defaults (unpartitioned), and spelling a default out names the same cache
// entry. Every served design runs sim's default kernel: the kernels compute
// the same bits, so the choice among them is made where their speeds are
// measured, not on the wire. Requests are decoded strictly, so a field that
// is not "partitions" ("kernel", "strategy", "waveform") is answered with 400
// naming it. A served batch runs on one worker.
type CompileOptions struct {
	// Partitions > 0 compiles for RepCut-partitioned sessions.
	Partitions int `json:"partitions,omitempty"`
}

// SimOptions resolves the wire options to sim compile options, rejecting
// out-of-range counts before any compilation work runs.
func (o CompileOptions) SimOptions() ([]sim.Option, error) {
	if o.Partitions == 0 {
		return nil, nil
	}
	if o.Partitions < 0 {
		return nil, fmt.Errorf("server: partitions must be >= 1, got %d", o.Partitions)
	}
	return []sim.Option{sim.WithPartitions(o.Partitions)}, nil
}

// CompileRequest is the body of POST /designs.
type CompileRequest struct {
	// Source is the FIRRTL source text to compile.
	Source string `json:"source"`
	// Options select the compile configuration; part of the cache key.
	Options CompileOptions `json:"options,omitempty"`
}

// DesignInfo describes one cached compiled design.
type DesignInfo struct {
	// Hash is the design's cache identity: sim.SourceHash over the
	// normalized source and resolved options.
	Hash string `json:"hash"`
	// Design is the circuit name.
	Design string `json:"design"`
	// Compile-time figures (sim.Stats).
	Ops       int `json:"ops"`
	Layers    int `json:"layers"`
	Registers int `json:"registers"`
	// Port and signal names clients can bind.
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
	Signals []string `json:"signals"`
}

// CompileResponse is the body answering POST /designs (201 on a fresh
// compile, 200 when served from cache) and GET /designs/{hash}.
type CompileResponse struct {
	DesignInfo
	// Cached is true when the design was already in the cross-user cache
	// (or another client's in-flight compile was joined).
	Cached bool `json:"cached"`
}

// CreateSessionRequest is the body of POST /designs/{hash}/sessions. An
// empty body is a plain single-lane session.
type CreateSessionRequest struct {
	// Lanes > 0 serves the session from a multi-lane batch instead of a
	// scalar session; commands then address lanes individually.
	Lanes int `json:"lanes,omitempty"`
}

// SessionResponse describes one live session lease.
type SessionResponse struct {
	SessionID string `json:"session_id"`
	Hash      string `json:"hash"`
	// Lanes is the number of drivable lanes (1 for scalar sessions).
	Lanes int `json:"lanes"`
}

// CommandsRequest is the body of POST /sessions/{id}/commands: a batched
// list of wire commands executed in order on the session, many cycles per
// round-trip.
type CommandsRequest struct {
	Commands json.RawMessage `json:"commands"`
}

// CommandsResponse answers a command batch. When execution stops early
// (unknown signal, wait timeout, budget exceeded, deadline, cancellation)
// Outcomes holds the completed prefix and Error the failure — the cycles
// the prefix simulated are real engine state; Kind classifies the failure
// for programmatic handling. The session stays usable except after a
// panic (Kind "panic"), which quarantines it.
type CommandsResponse struct {
	Outcomes []testbench.Outcome `json:"outcomes"`
	// Cycle is the session's completed-cycle count after the batch.
	Cycle int64  `json:"cycle"`
	Error string `json:"error,omitempty"`
	Kind  string `json:"kind,omitempty"`
}

// Error kinds: the machine-readable classification carried by
// [ErrorResponse.Kind] and [CommandsResponse.Kind] so clients can
// distinguish failure modes without parsing messages.
const (
	// KindPanic marks a recovered panic (500). The session involved, if
	// any, was quarantined; the work's effects must be presumed lost.
	KindPanic = "panic"
	// KindTimeout marks a deadline expiry (504). For command lists the
	// completed prefix is reported and its engine state is real.
	KindTimeout = "timeout"
	// KindCanceled marks a run stopped because its session was deleted
	// mid-flight (410).
	KindCanceled = "canceled"
	// KindDraining marks work rejected during graceful shutdown (503 with
	// Retry-After).
	KindDraining = "draining"
	// KindBackpressure marks design-capacity or per-client saturation (429
	// with Retry-After).
	KindBackpressure = "backpressure"
	// KindGone marks a request against a released session (410).
	KindGone = "gone"
)

// LogEntry is one recorded command of a session's transaction log,
// stamped with the cycle at which it started executing. Replaying the
// Command list of a log against a fresh session of the same design
// reproduces the trace.
type LogEntry struct {
	Cycle   int64             `json:"cycle"`
	Command testbench.Command `json:"command"`
	Outcome testbench.Outcome `json:"outcome"`
}

// LogResponse answers GET /sessions/{id}/log.
type LogResponse struct {
	SessionID string `json:"session_id"`
	// Dropped counts oldest entries discarded once the per-session log
	// bound was reached; the log is exact when it is 0.
	Dropped int64      `json:"dropped,omitempty"`
	Entries []LogEntry `json:"entries"`
}

// HealthResponse answers GET /healthz — pure liveness: 200 whenever the
// process can serve HTTP at all, drain or no drain. Load balancers that
// must stop routing new work watch /readyz instead.
type HealthResponse struct {
	Status   string `json:"status"`
	Designs  int    `json:"designs"`
	Sessions int    `json:"sessions"`
}

// ReadyResponse answers GET /readyz — readiness: 200 with status "ready"
// while the server accepts new work, 503 with status "draining" during
// graceful shutdown. Designs counts compiled designs, not cached failures.
type ReadyResponse struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	Designs  int    `json:"designs"`
}

// ErrorResponse is the body of every non-2xx answer. Kind, when set,
// classifies the failure (see the Kind* constants).
type ErrorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}
