package gateway

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lambdanic/internal/dispatch"
)

// workloadRoute is the routing state for one workload: the worker set
// and its flow router (ring plus standing elephant pins, immutable per
// snapshot; member i is workers[i]). The flow-rate sketch is the only
// mutable part — lock-free, and shared across snapshots so observation
// survives route updates.
type workloadRoute struct {
	workers []net.Addr
	*dispatch.Table
	*dispatch.FlowStats
}

// RebalanceConfig parameterizes the elephant-flow rebalancer.
type RebalanceConfig struct {
	// Every is the tick period (default 1s).
	Every time.Duration
	// TopK bounds how many elephants per workload are considered each
	// tick (0 selects 8).
	TopK int
	// ImbalanceRatio is the overload threshold: a worker whose load
	// exceeds ratio × the mean triggers migration of its elephants
	// (0 selects 1.5; 1 migrates off any worker above the mean).
	ImbalanceRatio float64
	// Loads supplies per-worker load, keyed by worker address string.
	// Nil falls back to the gateway's own per-worker in-flight counts;
	// deployments wire healthd's EWMA-smoothed snapshot here.
	Loads func() []dispatch.Load
}

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.Every <= 0 {
		c.Every = time.Second
	}
	if c.TopK == 0 {
		c.TopK = 8
	}
	if c.ImbalanceRatio == 0 {
		c.ImbalanceRatio = 1.5
	}
	return c
}

// rebalancer is the gateway's background migration loop.
type rebalancer struct {
	cfg  RebalanceConfig
	stop chan struct{}
	once sync.Once
}

// StartRebalancer launches the elephant-flow migration loop and returns
// a stop function. Each tick it reads the load report, finds workloads
// whose owner workers are overloaded, migrates their top-k elephant
// flows to underloaded workers, and rolls the rate window. Mice are
// never touched. Calling it twice replaces nothing — the second call
// returns a no-op stop and leaves the first loop running.
func (g *Gateway) StartRebalancer(cfg RebalanceConfig) (stop func()) {
	cfg = cfg.withDefaults()
	g.mu.Lock()
	if g.reb != nil {
		g.mu.Unlock()
		return func() {}
	}
	r := &rebalancer{cfg: cfg, stop: make(chan struct{})}
	g.reb = r
	g.mu.Unlock()
	go func() {
		t := time.NewTicker(cfg.Every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				g.RebalanceOnce(cfg)
			case <-r.stop:
				return
			}
		}
	}()
	return func() {
		r.once.Do(func() { close(r.stop) })
		g.mu.Lock()
		if g.reb == r {
			g.reb = nil
		}
		g.mu.Unlock()
	}
}

// RebalanceOnce runs one rebalance tick synchronously and returns the
// number of migrations applied (exposed for tests and lnicctl).
func (g *Gateway) RebalanceOnce(cfg RebalanceConfig) int {
	cfg = cfg.withDefaults()
	var report []dispatch.Load
	if cfg.Loads != nil {
		report = cfg.Loads()
	}
	rt := g.routes.Load()
	ids := make([]uint32, 0, len(rt.m))
	for id := range rt.m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	applied := 0
	for _, id := range ids {
		applied += g.stepRoute(id, func(wr *workloadRoute) (*dispatch.Table, int) {
			return wr.Rebalance(wr.FlowStats, g.loadsFor(wr, report), cfg.TopK, cfg.ImbalanceRatio)
		})
	}
	return applied
}

// stepRoute replaces workload id's flow router with step's result,
// copy-on-write: step sees the current entry under g.mu, and requests
// holding the previous snapshot keep its pins. Returns the migrations
// step applied.
func (g *Gateway) stepRoute(id uint32, step func(*workloadRoute) (*dispatch.Table, int)) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.routes.Load()
	wr := old.m[id]
	if wr == nil {
		return 0
	}
	table, applied := step(wr)
	if applied == 0 {
		return 0
	}
	g.routes.Store(old.with(id, &workloadRoute{workers: wr.workers, Table: table, FlowStats: wr.FlowStats}))
	g.migrations.Add(uint64(applied))
	return applied
}

// loadsFor assembles the load vector for one workload's workers: the
// external report where present, the gateway's own in-flight count
// otherwise.
func (g *Gateway) loadsFor(wr *workloadRoute, report []dispatch.Load) []dispatch.Load {
	byName := make(map[string]float64, len(report))
	for _, l := range report {
		byName[l.Worker] = l.Load
	}
	out := make([]dispatch.Load, len(wr.workers))
	for i, w := range wr.workers {
		name := w.String()
		load, ok := byName[name]
		if !ok {
			load = float64(g.inflightOf(name))
		}
		out[i] = dispatch.Load{Worker: name, Load: load}
	}
	return out
}

// Migrations returns the total elephant-flow migrations applied.
func (g *Gateway) Migrations() uint64 { return g.migrations.Load() }

// PinnedFlows counts standing migrations across all workloads — flows
// currently pinned somewhere other than their ring owner.
func (g *Gateway) PinnedFlows() int {
	rt := g.routes.Load()
	n := 0
	for _, wr := range rt.m {
		n += wr.Pinned()
	}
	return n
}

// FailoversFor returns the failovers counted for one workload.
func (g *Gateway) FailoversFor(id uint32) uint64 {
	if c, ok := g.failoversBy.Load(id); ok {
		return c.(*atomic.Uint64).Load()
	}
	return 0
}

// FailoversByWorkload snapshots the per-workload failover counters.
func (g *Gateway) FailoversByWorkload() map[uint32]uint64 {
	out := make(map[uint32]uint64)
	g.failoversBy.Range(func(k, v any) bool {
		out[k.(uint32)] = v.(*atomic.Uint64).Load()
		return true
	})
	return out
}

// countFailover bumps the node-wide and per-workload failover counters.
func (g *Gateway) countFailover(id uint32) {
	g.failovers.Add(1)
	c, ok := g.failoversBy.Load(id)
	if !ok {
		c, _ = g.failoversBy.LoadOrStore(id, &atomic.Uint64{})
	}
	c.(*atomic.Uint64).Add(1)
}

// inflightFor returns the in-flight counter for a worker address,
// creating it on first use.
func (g *Gateway) inflightFor(name string) *atomic.Int64 {
	if c, ok := g.inflight.Load(name); ok {
		return c.(*atomic.Int64)
	}
	c, _ := g.inflight.LoadOrStore(name, &atomic.Int64{})
	return c.(*atomic.Int64)
}

// inflightOf reads a worker's current in-flight count.
func (g *Gateway) inflightOf(name string) int64 {
	if c, ok := g.inflight.Load(name); ok {
		return c.(*atomic.Int64).Load()
	}
	return 0
}
