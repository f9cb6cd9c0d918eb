package server

import (
	"sync"
	"time"
)

// MetricsResponse answers GET /metrics: a JSON snapshot of every counter
// the service keeps — cache effectiveness, session churn, simulated work,
// per-design lease capacity, and per-endpoint latency.
type MetricsResponse struct {
	Cache     CacheMetrics               `json:"cache"`
	Sessions  SessionMetrics             `json:"sessions"`
	Work      WorkMetrics                `json:"work"`
	Fault     FaultMetrics               `json:"fault"`
	Pools     map[string]PoolMetrics     `json:"pools"`
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
}

// CacheMetrics reports the cross-user design cache.
type CacheMetrics struct {
	Entries int `json:"entries"`
	Max     int `json:"max"`
	// Hits counts requests served from an existing entry; Misses counts
	// compiles actually run; InflightDeduped counts callers who joined
	// another client's in-flight compile instead of running their own.
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	Evictions       uint64 `json:"evictions"`
	InflightDeduped uint64 `json:"inflight_deduped"`
}

// PoolMetrics reports one design's scalar-lease capacity: Live leases hold
// a slot each out of Cap, HighWater is the most ever held at once, and
// Checkouts counts slots ever granted. Batch leases hold no slot.
type PoolMetrics struct {
	Cap       int    `json:"cap"`
	Live      int    `json:"live"`
	HighWater int    `json:"high_water"`
	Checkouts uint64 `json:"checkouts"`
}

// FaultMetrics reports the service's fault-handling activity: every
// counter here is a failure the server absorbed without going down.
type FaultMetrics struct {
	// PanicsRecovered counts panics caught at the exec boundary — compile,
	// session creation, or command execution — and converted to typed 500s.
	PanicsRecovered uint64 `json:"panics_recovered"`
	// Timeouts counts command lists or requests stopped by a deadline.
	Timeouts uint64 `json:"timeouts"`
	// Canceled counts runs aborted because their session was deleted
	// mid-flight.
	Canceled uint64 `json:"canceled"`
	// DrainRejected counts work turned away with 503 during shutdown drain.
	DrainRejected uint64 `json:"drain_rejected"`
	// SessionsQuarantined counts leases torn down because their engine
	// panicked; each engine was closed, never run again.
	SessionsQuarantined uint64 `json:"sessions_quarantined"`
	// CircuitTrips counts compile circuit breakers tripped open;
	// CircuitOpen is how many design hashes are short-circuited right now.
	CircuitTrips uint64 `json:"circuit_trips"`
	CircuitOpen  int    `json:"circuit_open"`
	// Draining reports whether the server is in graceful shutdown.
	Draining bool `json:"draining"`
}

// SessionMetrics reports lease churn across all designs.
type SessionMetrics struct {
	Live    int `json:"live"`
	Clients int `json:"clients"`
	// Created counts leases ever granted; Released counts explicit
	// DELETEs; Evicted counts idle-TTL reaps.
	Created  uint64 `json:"created"`
	Released uint64 `json:"released"`
	Evicted  uint64 `json:"evicted"`
}

// WorkMetrics reports the simulation work the service has executed.
type WorkMetrics struct {
	CyclesSimulated  uint64 `json:"cycles_simulated"`
	CommandsExecuted uint64 `json:"commands_executed"`
}

// EndpointMetrics reports one route's request latency.
type EndpointMetrics struct {
	Requests    uint64 `json:"requests"`
	Errors      uint64 `json:"errors"`
	TotalMicros int64  `json:"total_micros"`
	MaxMicros   int64  `json:"max_micros"`
}

// metrics is the service-wide counter set for work and latency; the cache
// and the session registry keep their own counters and are merged into the
// snapshot by the /metrics handler.
type metrics struct {
	mu               sync.Mutex
	endpoints        map[string]*EndpointMetrics
	cyclesSimulated  uint64
	commandsExecuted uint64

	// Fault counters (see FaultMetrics); monotonic, guarded by mu. The
	// quarantine, breaker, and drain-state figures live with their owners
	// (session registry, design cache, server) and are merged by /metrics.
	panicsRecovered uint64
	timeouts        uint64
	canceled        uint64
	drainRejected   uint64
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*EndpointMetrics)}
}

// observe records one request against its route pattern.
func (m *metrics) observe(endpoint string, dur time.Duration, isErr bool) {
	micros := dur.Microseconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.endpoints[endpoint]
	if e == nil {
		e = &EndpointMetrics{}
		m.endpoints[endpoint] = e
	}
	e.Requests++
	if isErr {
		e.Errors++
	}
	e.TotalMicros += micros
	if micros > e.MaxMicros {
		e.MaxMicros = micros
	}
}

// addWork accounts a command batch's simulated cycles and command count.
func (m *metrics) addWork(cycles int64, commands int) {
	m.mu.Lock()
	m.cyclesSimulated += uint64(cycles)
	m.commandsExecuted += uint64(commands)
	m.mu.Unlock()
}

// Fault counter bumps; each maps to one field of FaultMetrics.
func (m *metrics) panicRecovered() { m.bump(&m.panicsRecovered) }
func (m *metrics) timedOut()       { m.bump(&m.timeouts) }
func (m *metrics) runCanceled()    { m.bump(&m.canceled) }
func (m *metrics) drainReject()    { m.bump(&m.drainRejected) }

func (m *metrics) bump(c *uint64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

func (m *metrics) snapshot() (WorkMetrics, FaultMetrics, map[string]EndpointMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	eps := make(map[string]EndpointMetrics, len(m.endpoints))
	for k, v := range m.endpoints {
		eps[k] = *v
	}
	fm := FaultMetrics{
		PanicsRecovered: m.panicsRecovered,
		Timeouts:        m.timeouts,
		Canceled:        m.canceled,
		DrainRejected:   m.drainRejected,
	}
	return WorkMetrics{CyclesSimulated: m.cyclesSimulated, CommandsExecuted: m.commandsExecuted}, fm, eps
}
