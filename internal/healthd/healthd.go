// Package healthd is λ-NIC's failure detector and the control-plane
// half of the fault-tolerance loop: workers heartbeat liveness (a
// sequence number plus a load snapshot) into the Raft-backed control
// store, and the manager side runs timeout/phi-style suspicion over
// heartbeat ages, evicting workers whose silence exceeds the eviction
// threshold so their lambdas can be re-placed (DRF, §4.2.1 D1) and the
// gateway's routes refreshed.
//
// The detector core is deterministic: it never reads a clock itself —
// every Observe and Check receives an explicit timestamp (a duration
// since an epoch), so the same heartbeat/check sequence always yields
// the same transitions whether time is the wall clock or the
// discrete-event simulation's virtual clock. The phi score is the
// classic accrual-detector simplification: heartbeat age divided by the
// mean observed interarrival, so "phi ≥ 3" reads as "three expected
// heartbeats missed".
package healthd

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"lambdanic/internal/dispatch"
)

// Heartbeat is one worker liveness report, stored JSON-encoded in the
// control store under "health/<worker>".
type Heartbeat struct {
	Worker string `json:"worker"`
	// Seq increases with every beat; stale or duplicate sequence numbers
	// are ignored by the detector.
	Seq uint64 `json:"seq"`
	// Load is the worker's in-flight request count when it beat.
	Load int `json:"load"`
}

// Encode renders the heartbeat for the control store.
func (h Heartbeat) Encode() string {
	data, _ := json.Marshal(h)
	return string(data)
}

// DecodeHeartbeat parses a control-store heartbeat value.
func DecodeHeartbeat(s string) (Heartbeat, error) {
	var h Heartbeat
	if err := json.Unmarshal([]byte(s), &h); err != nil {
		return Heartbeat{}, fmt.Errorf("healthd: decode heartbeat: %w", err)
	}
	return h, nil
}

// Status is a worker's detector state.
type Status int

// Detector states, in escalation order.
const (
	StatusAlive Status = iota
	StatusSuspect
	StatusDead
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Config parameterizes the detector.
type Config struct {
	// Interval is the expected heartbeat period; it seeds the mean
	// interarrival before any history accumulates.
	Interval time.Duration
	// SuspectAfter is the phi score (missed expected heartbeats) at
	// which a worker turns Suspect.
	SuspectAfter float64
	// EvictAfter is the phi score at which a worker is declared Dead —
	// the recovery bound: detection completes within roughly EvictAfter+1
	// heartbeat intervals of the failure.
	EvictAfter float64
	// Window bounds the interarrival history used for the mean.
	Window int
	// LoadAlpha is the EWMA coefficient for smoothing per-worker load:
	// smoothed = alpha*sample + (1-alpha)*smoothed. Raw in-flight counts
	// are point samples taken at heartbeat instants and whipsaw between
	// beats; the rebalancer wants the trend, not the noise. Values are
	// clamped to (0, 1]; 1 disables smoothing (smoothed == raw).
	LoadAlpha float64
}

// Detector defaults: suspect after ~2 missed beats, evict after 4.
const (
	DefaultInterval     = 50 * time.Millisecond
	DefaultSuspectAfter = 2
	DefaultEvictAfter   = 4
	DefaultWindow       = 8
	// DefaultLoadAlpha weighs a new load sample at 30%: roughly the last
	// three heartbeats dominate the smoothed value.
	DefaultLoadAlpha = 0.3
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = DefaultSuspectAfter
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = DefaultEvictAfter
	}
	if c.EvictAfter < c.SuspectAfter {
		c.EvictAfter = c.SuspectAfter
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.LoadAlpha <= 0 {
		c.LoadAlpha = DefaultLoadAlpha
	}
	if c.LoadAlpha > 1 {
		c.LoadAlpha = 1
	}
	return c
}

// Transition is one worker status change.
type Transition struct {
	Worker   string
	From, To Status
	// At is the timestamp of the Check or Observe that produced it.
	At time.Duration
}

// WorkerHealth is one worker's state in a detector snapshot.
type WorkerHealth struct {
	Worker string
	Seq    uint64
	Load   int
	// LastSeen is when the newest heartbeat was observed.
	LastSeen time.Duration
	// Age is now minus LastSeen at snapshot time.
	Age time.Duration
	// Phi is the suspicion score: Age over mean interarrival.
	Phi    float64
	Status Status
	// SmoothedLoad is the EWMA of Load across heartbeats (Config.LoadAlpha)
	// — the signal the gateway rebalancer keys migration decisions off.
	SmoothedLoad float64
}

type workerState struct {
	seq       uint64
	load      int
	ewma      float64
	lastSeen  time.Duration
	intervals []time.Duration
	status    Status
}

// Detector tracks worker liveness from timestamped heartbeats. Safe for
// concurrent use; deterministic given the same call sequence.
type Detector struct {
	cfg Config

	mu      sync.Mutex
	workers map[string]*workerState
}

// NewDetector builds a detector, applying defaults to zero config
// fields.
func NewDetector(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults(), workers: make(map[string]*workerState)}
}

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// Observe ingests one heartbeat at the given time. Heartbeats with a
// sequence number at or below the last seen one are duplicates from the
// control store poll and are ignored. A heartbeat from a Suspect or
// Dead worker revives it; the returned transition (nil otherwise)
// reports that recovery.
func (d *Detector) Observe(hb Heartbeat, now time.Duration) *Transition {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.workers[hb.Worker]
	if !ok {
		// First sighting: the EWMA seeds at the first sample so the
		// smoothed value is meaningful immediately.
		d.workers[hb.Worker] = &workerState{seq: hb.Seq, load: hb.Load, ewma: float64(hb.Load), lastSeen: now}
		return nil
	}
	if hb.Seq <= st.seq {
		return nil
	}
	if gap := now - st.lastSeen; gap > 0 {
		st.intervals = append(st.intervals, gap)
		if len(st.intervals) > d.cfg.Window {
			st.intervals = st.intervals[len(st.intervals)-d.cfg.Window:]
		}
	}
	st.seq = hb.Seq
	st.load = hb.Load
	st.ewma = d.cfg.LoadAlpha*float64(hb.Load) + (1-d.cfg.LoadAlpha)*st.ewma
	st.lastSeen = now
	if st.status != StatusAlive {
		tr := &Transition{Worker: hb.Worker, From: st.status, To: StatusAlive, At: now}
		st.status = StatusAlive
		return tr
	}
	return nil
}

// meanInterval is the phi denominator: the mean observed interarrival,
// floored at the configured interval so bursts of quick beats cannot
// make the detector hair-triggered.
func (d *Detector) meanInterval(st *workerState) time.Duration {
	if len(st.intervals) == 0 {
		return d.cfg.Interval
	}
	var sum time.Duration
	for _, iv := range st.intervals {
		sum += iv
	}
	mean := sum / time.Duration(len(st.intervals))
	if mean < d.cfg.Interval {
		mean = d.cfg.Interval
	}
	return mean
}

func (d *Detector) phi(st *workerState, now time.Duration) float64 {
	age := now - st.lastSeen
	if age <= 0 {
		return 0
	}
	return float64(age) / float64(d.meanInterval(st))
}

// Check re-evaluates every worker's suspicion at the given time and
// returns the status transitions, ordered by worker name. Dead is
// sticky: only a fresh heartbeat (Observe) revives a dead worker.
func (d *Detector) Check(now time.Duration) []Transition {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.workers))
	for name := range d.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Transition
	for _, name := range names {
		st := d.workers[name]
		if st.status == StatusDead {
			continue
		}
		phi := d.phi(st, now)
		next := st.status
		switch {
		case phi >= d.cfg.EvictAfter:
			next = StatusDead
		case phi >= d.cfg.SuspectAfter:
			next = StatusSuspect
		default:
			next = StatusAlive
		}
		if next != st.status {
			out = append(out, Transition{Worker: name, From: st.status, To: next, At: now})
			st.status = next
		}
	}
	return out
}

// Snapshot reports every tracked worker's health at the given time,
// ordered by worker name.
func (d *Detector) Snapshot(now time.Duration) []WorkerHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]WorkerHealth, 0, len(d.workers))
	for name, st := range d.workers {
		out = append(out, WorkerHealth{
			Worker:       name,
			Seq:          st.seq,
			Load:         st.load,
			LastSeen:     st.lastSeen,
			Age:          now - st.lastSeen,
			Phi:          d.phi(st, now),
			Status:       st.status,
			SmoothedLoad: st.ewma,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// Loads is the rebalancer's load report at now: each Alive worker's
// smoothed load, ordered by worker name. Suspect and Dead workers are
// left out so migrations never target them.
func (d *Detector) Loads(now time.Duration) []dispatch.Load {
	snap := d.Snapshot(now)
	out := make([]dispatch.Load, 0, len(snap))
	for _, wh := range snap {
		if wh.Status == StatusAlive {
			out = append(out, dispatch.Load{Worker: wh.Worker, Load: wh.SmoothedLoad})
		}
	}
	return out
}

// Status returns one worker's current status; unknown workers read as
// Dead.
func (d *Detector) Status(worker string) Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st, ok := d.workers[worker]; ok {
		return st.status
	}
	return StatusDead
}

// Forget drops a worker from tracking (after eviction completes, or
// when a worker is decommissioned).
func (d *Detector) Forget(worker string) {
	d.mu.Lock()
	delete(d.workers, worker)
	d.mu.Unlock()
}
