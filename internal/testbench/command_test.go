package testbench

import (
	"bytes"
	"strings"
	"testing"
)

func validCommands() []Command {
	return []Command{
		{Op: OpPoke, Signal: "step", Value: 3},
		{Op: OpStep, Cycles: 16},
		{Op: OpPeek, Signal: "count"},
		{Op: OpPeek, Signal: "count", Lane: 2},
		{Op: OpTransact, Pokes: map[string]uint64{"cmd": 7}, Resp: "resp",
			Until: &Cond{Test: CondNonzero}, MaxCycles: 100},
		{Op: OpTransact, Resp: "resp", Until: &Cond{Test: CondEq, Value: 9}, MaxCycles: 1},
		{Op: OpHandshake, Valid: "v", Ready: "r", Pokes: map[string]uint64{"bits": 1}, MaxCycles: 10},
		{Op: OpWait, Signal: "done", Until: &Cond{Test: CondNonzero}, MaxCycles: 50},
		{Op: OpWait, Lane: 1, Signal: "count", Until: &Cond{Test: CondGeq, Value: 10}, MaxCycles: 200},
		{Op: OpWait, Signal: "busy", Until: &Cond{Test: CondLt, Value: 2}, MaxCycles: 8},
		{Op: OpWait, Signal: "tick", MaxCycles: 1},
	}
}

func TestCommandRoundTrip(t *testing.T) {
	cmds := validCommands()
	data, err := EncodeCommands(cmds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCommands(data, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cmds) {
		t.Fatalf("round trip: %d commands, want %d", len(got), len(cmds))
	}
	again, err := EncodeCommands(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("encoding not stable:\n%s\n%s", data, again)
	}
}

func TestCommandValidate(t *testing.T) {
	bad := []struct {
		name string
		cmd  Command
	}{
		{"unknown op", Command{Op: "reboot"}},
		{"empty op", Command{}},
		{"poke without signal", Command{Op: OpPoke, Value: 1}},
		{"peek without signal", Command{Op: OpPeek}},
		{"step zero cycles", Command{Op: OpStep}},
		{"step negative cycles", Command{Op: OpStep, Cycles: -4}},
		{"negative lane", Command{Op: OpPeek, Signal: "x", Lane: -1}},
		{"transact without resp", Command{Op: OpTransact, MaxCycles: 5}},
		{"transact without budget", Command{Op: OpTransact, Resp: "r"}},
		{"transact bad cond", Command{Op: OpTransact, Resp: "r", MaxCycles: 5, Until: &Cond{Test: "gt"}}},
		{"handshake without valid", Command{Op: OpHandshake, Ready: "r", MaxCycles: 5}},
		{"handshake without ready", Command{Op: OpHandshake, Valid: "v", MaxCycles: 5}},
		{"handshake without budget", Command{Op: OpHandshake, Valid: "v", Ready: "r"}},
		{"wait without signal", Command{Op: OpWait, MaxCycles: 5}},
		{"wait without budget", Command{Op: OpWait, Signal: "done"}},
		{"wait bad cond", Command{Op: OpWait, Signal: "done", MaxCycles: 5, Until: &Cond{Test: "gt"}}},
	}
	for _, tc := range bad {
		if err := tc.cmd.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cmd)
		}
	}
	for i, cmd := range validCommands() {
		if err := cmd.Validate(); err != nil {
			t.Errorf("valid command %d rejected: %v", i, err)
		}
	}
}

func TestDecodeCommandsRejects(t *testing.T) {
	cases := []struct {
		name, data, wantErr string
	}{
		{"not json", "poke count", "decoding"},
		{"object not array", `{"op":"peek","signal":"x"}`, "decoding"},
		{"unknown field", `[{"op":"peek","signal":"x","sgnal":"y"}]`, "unknown field"},
		{"trailing data", `[{"op":"step","cycles":1}] [1,2]`, "trailing"},
		{"stray bracket", `[{"op":"step","cycles":1}]]`, "trailing"},
		{"stray brace", `[{"op":"step","cycles":1}]}`, "trailing"},
		{"invalid command", `[{"op":"step"}]`, "cycles >= 1"},
		{"negative step", `[{"op":"step","cycles":-1}]`, "cycles >= 1"},
	}
	for _, tc := range cases {
		if _, err := DecodeCommands([]byte(tc.data), 64); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	// The per-request command bound.
	long := "[" + strings.Repeat(`{"op":"step","cycles":1},`, 64) + `{"op":"step","cycles":1}]`
	if _, err := DecodeCommands([]byte(long), 64); err == nil {
		t.Error("65 commands passed a 64-command limit")
	}
	if _, err := DecodeCommands([]byte(long), 65); err != nil {
		t.Errorf("65 commands rejected at a 65-command limit: %v", err)
	}
}

func TestCondPred(t *testing.T) {
	if (&Cond{Test: CondAny}).Pred() != nil {
		t.Error("CondAny should compile to the nil (first-cycle) predicate")
	}
	var nilCond *Cond
	if nilCond.Pred() != nil {
		t.Error("nil cond should compile to the nil predicate")
	}
	if p := (&Cond{Test: CondNonzero}).Pred(); p(0) || !p(5) {
		t.Error("nonzero predicate wrong")
	}
	if p := (&Cond{Test: CondEq, Value: 7}).Pred(); p(6) || !p(7) {
		t.Error("eq predicate wrong")
	}
	if p := (&Cond{Test: CondNeq, Value: 7}).Pred(); p(7) || !p(8) {
		t.Error("neq predicate wrong")
	}
	if p := (&Cond{Test: CondGeq, Value: 7}).Pred(); p(6) || !p(7) || !p(8) {
		t.Error("geq predicate wrong")
	}
	if p := (&Cond{Test: CondLt, Value: 7}).Pred(); !p(6) || p(7) || p(8) {
		t.Error("lt predicate wrong")
	}
}

// FuzzDecodeCommands asserts the wire decoder's contract on arbitrary
// input: malformed command lists must error — never panic — and anything
// that decodes must re-encode to a stable fixpoint (encode∘decode is
// idempotent), so a server echoing a client's accepted request preserves
// it exactly.
func FuzzDecodeCommands(f *testing.F) {
	seeds := [][]Command{
		{{Op: OpPoke, Signal: "step", Value: 3}, {Op: OpStep, Cycles: 16}, {Op: OpPeek, Signal: "count"}},
		{{Op: OpTransact, Pokes: map[string]uint64{"cmd_valid": 1, "cmd_bits": 42}, Resp: "resp_data",
			Until: &Cond{Test: CondNonzero}, MaxCycles: 100}},
		{{Op: OpHandshake, Valid: "in_valid", Ready: "in_ready", Pokes: map[string]uint64{"in_bits": 7}, MaxCycles: 64}},
		{{Op: OpPeek, Signal: "count", Lane: 3}, {Op: OpStep, Cycles: 1}},
		{{Op: OpWait, Lane: 1, Signal: "count", Until: &Cond{Test: CondGeq, Value: 10}, MaxCycles: 200}},
	}
	for _, cmds := range seeds {
		data, err := EncodeCommands(cmds)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`[{"op":"step","cycles":9999999999}]`))
	f.Add([]byte(`[{"op":"poke","signal":"", "value":18446744073709551615}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{`))
	f.Add([]byte("\x00\xff not json"))

	f.Fuzz(func(t *testing.T, data []byte) {
		cmds, err := DecodeCommands(data, 64)
		if err != nil {
			return // rejected cleanly: the contract holds
		}
		enc, err := EncodeCommands(cmds)
		if err != nil {
			t.Fatalf("decoded commands failed to re-encode: %v\n%q", err, data)
		}
		back, err := DecodeCommands(enc, 64)
		if err != nil {
			t.Fatalf("re-encoded commands failed to decode: %v\n%q", err, enc)
		}
		enc2, err := EncodeCommands(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode not idempotent:\n%s\n%s", enc, enc2)
		}
	})
}
