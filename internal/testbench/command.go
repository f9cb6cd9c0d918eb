package testbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// This file is the wire framing of the port layer (sim.Testbench): the
// transaction vocabulary of §6.2 (poke/peek/step/transact/handshake) encoded
// as JSON command lists so an external host can drive a session over a
// network round-trip. The encoding is shared verbatim by the HTTP server
// (internal/server decodes and executes) and the Go client (sim/client
// encodes) — one schema, one validator, one fuzz target.
//
// The shape is deliberately batched: a request carries a *list* of
// commands, each of which may span many cycles (step k, transact with a
// cycle budget), so one round-trip amortises protocol overhead over
// hundreds of simulated cycles the way Manticore's bulk-synchronous
// barriers amortise synchronisation.

// Command op names. The zero value is invalid: every wire command names its
// operation explicitly.
const (
	OpPoke      = "poke"      // drive a named signal: Signal, Value
	OpPeek      = "peek"      // read a named signal: Signal
	OpStep      = "step"      // advance Cycles cycles (all lanes)
	OpTransact  = "transact"  // poke Pokes, step until Until holds on Resp, MaxCycles budget
	OpHandshake = "handshake" // valid/ready transfer: Valid, Pokes, Ready, MaxCycles
	OpWait      = "wait"      // step until Until holds on Signal, MaxCycles budget
)

// Command is one wire-framed testbench operation. Exactly the fields of
// its op are meaningful; Validate rejects commands whose required fields
// are missing or out of range. Lane selects a batch lane and is 0 for
// plain sessions.
type Command struct {
	Op     string `json:"op"`
	Lane   int    `json:"lane,omitempty"`
	Signal string `json:"signal,omitempty"`
	Value  uint64 `json:"value,omitempty"`
	Cycles int64  `json:"cycles,omitempty"`
	// Transact / handshake framing.
	Pokes     map[string]uint64 `json:"pokes,omitempty"`
	Resp      string            `json:"resp,omitempty"`
	Valid     string            `json:"valid,omitempty"`
	Ready     string            `json:"ready,omitempty"`
	Until     *Cond             `json:"until,omitempty"`
	MaxCycles int               `json:"max_cycles,omitempty"`
}

// Cond is a predicate over a signal value that survives the wire: the
// acceptance condition of a transact command. The zero Test is invalid;
// CondAny states "accept the first sampled cycle" explicitly.
type Cond struct {
	Test  string `json:"test"`
	Value uint64 `json:"value,omitempty"`
}

// Cond test names.
const (
	CondAny     = "any"     // accept the first sampled cycle
	CondNonzero = "nonzero" // accept when the signal is non-zero
	CondEq      = "eq"      // accept when the signal equals Value
	CondNeq     = "neq"     // accept when the signal differs from Value
	CondGeq     = "geq"     // accept when the signal is >= Value (unsigned)
	CondLt      = "lt"      // accept when the signal is < Value (unsigned)
)

// Validate checks the condition is expressible.
func (c *Cond) Validate() error {
	switch c.Test {
	case CondAny, CondNonzero, CondEq, CondNeq, CondGeq, CondLt:
		return nil
	}
	return fmt.Errorf("testbench: unknown condition test %q", c.Test)
}

// Pred compiles the condition to the predicate form [DMI.Transact] takes.
// A nil condition and CondAny both yield nil (accept the first cycle).
func (c *Cond) Pred() func(uint64) bool {
	if c == nil {
		return nil
	}
	switch c.Test {
	case CondNonzero:
		return func(v uint64) bool { return v != 0 }
	case CondEq:
		want := c.Value
		return func(v uint64) bool { return v == want }
	case CondNeq:
		want := c.Value
		return func(v uint64) bool { return v != want }
	case CondGeq:
		want := c.Value
		return func(v uint64) bool { return v >= want }
	case CondLt:
		want := c.Value
		return func(v uint64) bool { return v < want }
	}
	return nil
}

// Validate checks that the command names a known op and carries that op's
// required fields in range. It bounds nothing time-like — cycle budgets are
// policy, clamped by the executing server — but it guarantees a valid
// command can be executed without consulting the wire layer again.
func (c *Command) Validate() error {
	if c.Lane < 0 {
		return fmt.Errorf("testbench: negative lane %d", c.Lane)
	}
	switch c.Op {
	case OpPoke:
		if c.Signal == "" {
			return fmt.Errorf("testbench: poke needs a signal")
		}
	case OpPeek:
		if c.Signal == "" {
			return fmt.Errorf("testbench: peek needs a signal")
		}
	case OpStep:
		if c.Cycles < 1 {
			return fmt.Errorf("testbench: step needs cycles >= 1, got %d", c.Cycles)
		}
	case OpTransact:
		if c.Resp == "" {
			return fmt.Errorf("testbench: transact needs a resp signal")
		}
		if c.MaxCycles < 1 {
			return fmt.Errorf("testbench: transact needs max_cycles >= 1, got %d", c.MaxCycles)
		}
		if c.Until != nil {
			if err := c.Until.Validate(); err != nil {
				return err
			}
		}
	case OpHandshake:
		if c.Valid == "" || c.Ready == "" {
			return fmt.Errorf("testbench: handshake needs valid and ready signals")
		}
		if c.MaxCycles < 1 {
			return fmt.Errorf("testbench: handshake needs max_cycles >= 1, got %d", c.MaxCycles)
		}
	case OpWait:
		if c.Signal == "" {
			return fmt.Errorf("testbench: wait needs a signal")
		}
		if c.MaxCycles < 1 {
			return fmt.Errorf("testbench: wait needs max_cycles >= 1, got %d", c.MaxCycles)
		}
		if c.Until != nil {
			if err := c.Until.Validate(); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("testbench: unknown command op %q", c.Op)
	}
	return nil
}

// Outcome is the result of one executed Command, returned in request
// order. Value carries the peek/transact response; Cycles counts the
// cycles the command consumed (step, transact, handshake).
type Outcome struct {
	Op     string `json:"op"`
	Lane   int    `json:"lane,omitempty"`
	Signal string `json:"signal,omitempty"`
	Value  uint64 `json:"value,omitempty"`
	Cycles int64  `json:"cycles,omitempty"`
}

// EncodeCommands serialises a command list for the wire after validating
// every element, so a client can never emit a request the server's decoder
// rejects.
func EncodeCommands(cmds []Command) ([]byte, error) {
	for i := range cmds {
		if err := cmds[i].Validate(); err != nil {
			return nil, fmt.Errorf("command %d: %w", i, err)
		}
	}
	return json.Marshal(cmds)
}

// DecodeCommands parses and validates a wire command list. Unknown fields
// are rejected (they are silent typos of optional fields otherwise), the
// list length is bounded by maxCommands, and malformed input errors —
// never panics, a contract FuzzDecodeCommands enforces.
func DecodeCommands(data []byte, maxCommands int) ([]Command, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cmds []Command
	if err := dec.Decode(&cmds); err != nil {
		return nil, fmt.Errorf("testbench: decoding commands: %w", err)
	}
	// A second JSON value or a stray delimiter after the array is a framing
	// error, not padding.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("testbench: trailing data after command list")
	}
	if len(cmds) > maxCommands {
		return nil, fmt.Errorf("testbench: %d commands exceeds the limit of %d per request", len(cmds), maxCommands)
	}
	for i := range cmds {
		if err := cmds[i].Validate(); err != nil {
			return nil, fmt.Errorf("command %d: %w", i, err)
		}
	}
	return cmds, nil
}
