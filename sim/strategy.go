package sim

import (
	"fmt"
	"strings"

	"rteaal/internal/partition"
)

// PartitionStrategy selects the register-ownership assignment used when a
// design is compiled with [WithPartitions]. The strategy decides where every
// register (and with it, its replicated combinational cone) lives, and
// therefore the replication factor, cut size, and load balance that
// [Design.PartitionStats] reports. The zero value is [MinCut], the default.
type PartitionStrategy uint8

const (
	// MinCut seeds with the cone clustering and runs KL/FM-style boundary
	// refinement, minimising first what the slowest partition does in a
	// cycle (a lock-step cycle costs exactly that), then replicated logic
	// plus exchanged registers. The default and the highest quality.
	MinCut PartitionStrategy = iota
	// ConeCluster greedily places each register, largest fan-in cone first,
	// where that same cost ends up lowest, so registers sharing logic
	// co-locate and the logic is replicated once instead of once per
	// partition. MinCut's starting point, without the refinement.
	ConeCluster
	// RoundRobin scatters registers cyclically — the structure-blind
	// baseline. Cheapest to plan, costliest to simulate on coupled designs.
	RoundRobin
)

// PartitionStrategies lists the strategies in increasing quality order.
func PartitionStrategies() []PartitionStrategy {
	return []PartitionStrategy{RoundRobin, ConeCluster, MinCut}
}

// String returns the canonical flag/stats spelling.
func (s PartitionStrategy) String() string {
	switch s {
	case MinCut:
		return "min-cut"
	case ConeCluster:
		return "cone-cluster"
	case RoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("PartitionStrategy(%d)", uint8(s))
}

// impl maps the public enum onto the internal strategy implementation.
func (s PartitionStrategy) impl() (partition.Strategy, error) {
	switch s {
	case MinCut:
		return partition.MinCut{}, nil
	case ConeCluster:
		return partition.ConeCluster{}, nil
	case RoundRobin:
		return partition.RoundRobin{}, nil
	}
	return nil, fmt.Errorf("sim: unknown partition strategy %d", uint8(s))
}

// ParsePartitionStrategy resolves a strategy name as accepted by command
// line flags: case-insensitive, dashes optional ("min-cut", "MinCut",
// "roundrobin", ...).
func ParsePartitionStrategy(name string) (PartitionStrategy, error) {
	key := strings.ReplaceAll(strings.ToLower(strings.TrimSpace(name)), "-", "")
	for _, s := range PartitionStrategies() {
		if key == strings.ReplaceAll(s.String(), "-", "") {
			return s, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown partition strategy %q (have round-robin, cone-cluster, min-cut)", name)
}

// WithPartitionStrategy selects the register-ownership assignment for a
// partitioned compile. It only has an effect together with [WithPartitions].
// The default is [MinCut]; [RoundRobin] is kept as the baseline the
// partition-quality experiments compare against.
func WithPartitionStrategy(s PartitionStrategy) Option {
	return func(c *config) { c.strategy = s }
}
