// Package partition assigns register ownership for RepCut-style partitioned
// simulation (§8): given a design tensor and a partition count, a [Strategy]
// produces the owner vector that internal/repcut turns into replicated
// cones, per-partition sub-tensors, and the differential RUM exchange.
// Everything downstream — cone marking, sub-tensor construction, RUM wiring,
// and the plan statistics — is a pure function of that single vector, so the
// assignment is where replication factor, cut size, and load balance are
// decided.
//
// Three strategies are provided, in increasing quality and cost:
//
//   - [RoundRobin] scatters registers cyclically. It is the cheapest and the
//     historical baseline, but ignores structure entirely: on tightly
//     coupled designs the per-partition cones converge on the whole design
//     and the replication factor approaches the partition count.
//   - [ConeCluster] greedily clusters registers by the overlap of their
//     fan-in cones, so registers sharing combinational logic co-locate and
//     the shared logic is replicated once instead of n times.
//   - [MinCut] seeds with the cone clustering and then runs KL/FM-style
//     boundary refinement, moving registers across partitions while that
//     lowers the plan's cost.
//
// The two structure-aware strategies minimise one cost, lexicographically:
// first the makespan — the largest partition's operations plus the registers
// it exchanges, which is what a lock-step cycle costs, because a cycle ends
// when its slowest partition does — and under it the total work, replicated
// operations plus register→reader cut edges. Balance is therefore not a
// constraint with a tolerance but a consequence: a partition is left larger
// than the others exactly when evening it out would cost more in copied
// logic and exchanged registers than it saves.
package partition

import (
	"fmt"

	"rteaal/internal/oim"
)

// Strategy maps a design tensor onto an ownership vector: owner[ri] is the
// partition (0..n-1) owning register ri of t.RegSlots. Implementations must
// be deterministic and must leave no partition empty when the design has at
// least n registers; callers clamp n to the register count before calling.
type Strategy interface {
	// Name identifies the strategy in stats, tables, and flags.
	Name() string
	// Assign partitions t's registers into n parts. It is an error to ask
	// for fewer than one partition or for more partitions than registers
	// (when the design has any).
	Assign(t *oim.Tensor, n int) (owner []int, err error)
}

// Default is the strategy used when the caller expresses no preference:
// [MinCut], the highest-quality assignment.
func Default() Strategy { return MinCut{} }

// All lists the built-in strategies in increasing quality order. Name
// resolution for flags lives at the public surface (sim.ParsePartitionStrategy).
func All() []Strategy { return []Strategy{RoundRobin{}, ConeCluster{}, MinCut{}} }

// checkAssignArgs applies the shared Assign contract.
func checkAssignArgs(t *oim.Tensor, n int) error {
	if n < 1 {
		return fmt.Errorf("partition: need at least one partition, got %d", n)
	}
	if len(t.RegSlots) > 0 && n > len(t.RegSlots) {
		return fmt.Errorf("partition: %d partitions for %d registers (clamp first)", n, len(t.RegSlots))
	}
	return nil
}

// Validate checks an owner vector against the Strategy contract: one owner
// per register, owners in range, and — when the design has at least n
// registers — no empty partition.
func Validate(owner []int, regs, n int) error {
	if len(owner) != regs {
		return fmt.Errorf("partition: owner vector covers %d of %d registers", len(owner), regs)
	}
	count := make([]int, n)
	for ri, p := range owner {
		if p < 0 || p >= n {
			return fmt.Errorf("partition: register %d assigned to partition %d of %d", ri, p, n)
		}
		count[p]++
	}
	if regs >= n {
		for p, c := range count {
			if c == 0 {
				return fmt.Errorf("partition: partition %d owns no registers", p)
			}
		}
	}
	return nil
}

// MaxConeOps reports the largest single register fan-in cone of the design:
// the floor under every plan's largest partition, since whoever owns that
// register computes its whole cone.
func MaxConeOps(t *oim.Tensor) int {
	m := 0
	for _, c := range analyze(t).coneOps {
		m = max(m, c)
	}
	return m
}

// RoundRobin scatters registers cyclically: owner[ri] = ri mod n. The
// historical baseline — cheapest possible assignment, no structural
// awareness.
type RoundRobin struct{}

// Name implements [Strategy].
func (RoundRobin) Name() string { return "round-robin" }

// Assign implements [Strategy].
func (RoundRobin) Assign(t *oim.Tensor, n int) ([]int, error) {
	if err := checkAssignArgs(t, n); err != nil {
		return nil, err
	}
	owner := make([]int, len(t.RegSlots))
	for ri := range owner {
		owner[ri] = ri % n
	}
	return owner, nil
}
