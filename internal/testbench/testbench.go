// Package testbench holds the two host-side vocabularies every testbench
// surface of this module shares, and nothing that touches an engine: the
// stimulus generators for the workloads of Table 3 ([Random], [Const],
// [Func]), and the wire schema of the §6.2 host↔DUT port layer — [Command],
// [Cond] and [Outcome], with the validator and decoder the server trusts.
//
// The port layer itself (ports resolved to LI coordinates, waits,
// transactions, handshakes) is sim.Testbench, bound directly to a session
// or batch. This package is a leaf: it imports no other package of the
// module (CI guards it), so a second port layer cannot grow back under sim.
package testbench

// Stimulus yields the value driven onto one primary input of one lane at
// one cycle. Values are pure functions of (cycle, lane, input) — never of
// call order — so every engine shape replays exactly the same stimulus and
// cross-engine traces stay comparable bit for bit.
//
// An engine calls Value itself at the top of every cycle, a parallel one
// from its workers, concurrently across lane shards and partitions and
// never after the run returns: Value must be safe for concurrent use.
type Stimulus interface {
	Value(cycle int64, lane, input int) uint64
}

// Const holds every input of every lane at a fixed value.
type Const uint64

// Value returns the constant.
func (c Const) Value(int64, int, int) uint64 { return uint64(c) }

// Func adapts a user function to a [Stimulus].
type Func func(cycle int64, lane, input int) uint64

// Value calls the function.
func (f Func) Value(cycle int64, lane, input int) uint64 { return f(cycle, lane, input) }

// randomStimulus drives seeded pseudo-random values, approximating the
// toggle activity of a software workload. Each value is a hash of
// (seed, cycle, lane, input), so lanes decorrelate and replay does not
// depend on poke order.
type randomStimulus uint64

// Random builds a deterministic random driver.
func Random(seed int64) Stimulus { return randomStimulus(seed) }

// Value hashes the coordinates through the SplitMix64 finalizer.
func (r randomStimulus) Value(cycle int64, lane, input int) uint64 {
	h := mix64(uint64(r) ^ uint64(cycle))
	h = mix64(h ^ uint64(lane))
	return mix64(h ^ uint64(input))
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
