package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/benchio"
	"lambdanic/internal/cluster"
	"lambdanic/internal/dispatch"
	"lambdanic/internal/healthd"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/workloads"
)

// The skew experiment measures what flow affinity buys under a skewed
// popularity distribution — and what it costs when a flash crowd makes
// one flow an elephant. A rack of worker NICs runs the web-server
// lambda with the per-core warm-state model enabled: a request whose
// flow key is still in its core's LRU skips the cold-start surcharge
// (match-table rules and SRAM-resident state already installed). Three
// dispatch policies consume the *identical* seeded Zipf arrival
// schedule — long-lived client flows, a fraction of one-shot flows,
// and a mid-run flash crowd hammering the hottest flows:
//
//	rr          round-robin: perfect load spread, zero affinity. Every
//	            flow's state is sprayed across the rack, so warm hits
//	            only happen by accident.
//	pinned      consistent-hash affinity: each flow sticks to its ring
//	            owner. Warm hits dominate, but the flash crowd piles
//	            onto the elephants' owners unchecked.
//	pinned+mig  affinity plus the rebalancer: a healthd detector smooths
//	            per-worker load (EWMA) on the virtual clock; when a
//	            worker runs hot beyond the imbalance ratio, only the
//	            top-k elephant flows (per-flow rate sketch) migrate to
//	            underloaded workers. Mice stay pinned and warm.
//
// Both affine policies run the gateway's own routing code: pinned is a
// dispatch.Table that is never rebalanced, and pinned+mig steps that
// Table with Table.Rebalance over a dispatch.FlowStats sketch — the
// same step Gateway.RebalanceOnce runs per workload.
//
// The report compares p50/p99/p999, per-worker load spread, and warm-
// hit rate per policy; its fingerprint (event count, final clock) is
// bit-identical between Skew and SkewParallel and between sim kernels.

// Skew dispatch policy names (also the benchmark row names).
const (
	SkewPolicyRR     = "rr"
	SkewPolicyPinned = "pinned"
	SkewPolicyMig    = "pinned+mig"
)

// SkewConfig sizes the flow-affinity experiment.
type SkewConfig struct {
	// Workers is the rack size (default 16); each NIC is down-binned to
	// 1 island × 2 cores × 2 threads so contention is visible.
	Workers int
	// Flows is the long-lived client-flow population (default 128).
	Flows int
	// ZipfS is the popularity exponent across flows (default 1.1 — the
	// classic "90/10" web skew).
	ZipfS float64
	// OneShotFrac is the fraction of arrivals carrying a fresh,
	// never-repeated flow key (default 0.10) — traffic no warm state or
	// pin can help.
	OneShotFrac float64
	// Rate is the base open-loop arrival rate (default 800,000 req/s —
	// roughly 70% of the down-binned rack's round-robin capacity, so
	// cold-start work shows up as queueing).
	Rate float64
	// Duration is the virtual run length (default 250 ms).
	Duration time.Duration
	// CrowdStart/CrowdEnd bound the flash crowd (defaults 80/160 ms);
	// CrowdRate is its extra arrival rate (default 200,000 req/s),
	// spread uniformly over the CrowdFlows hottest flows (default 4).
	CrowdStart, CrowdEnd time.Duration
	CrowdRate            float64
	CrowdFlows           int
	// ServiceSweeps sizes one request's EMEM scan (default 12 sweeps —
	// a mid-weight interactive lambda, ~10 µs of NPU time), so flow
	// hotspots translate into real queueing.
	ServiceSweeps int
	// WarmFlows is each NPU core's warm-state LRU capacity (default 8);
	// ColdStartCycles is the miss surcharge (default 50,000 cycles —
	// ≈79 µs at the paper's 633 MHz clock).
	WarmFlows       int
	ColdStartCycles uint64
	// RebalanceEvery is the load-report + rebalance period (default
	// 2 ms); TopK bounds migrations per tick (default 8);
	// ImbalanceRatio is the overload threshold versus mean load
	// (default 1.3); LoadAlpha is the healthd EWMA coefficient
	// (default healthd.DefaultLoadAlpha).
	RebalanceEvery time.Duration
	TopK           int
	ImbalanceRatio float64
	LoadAlpha      float64
}

// DefaultSkew returns the full-size experiment.
func DefaultSkew() SkewConfig {
	return SkewConfig{
		Workers:         16,
		Flows:           128,
		ZipfS:           1.1,
		OneShotFrac:     0.10,
		Rate:            800_000,
		Duration:        250 * time.Millisecond,
		CrowdStart:      80 * time.Millisecond,
		CrowdEnd:        160 * time.Millisecond,
		CrowdRate:       200_000,
		CrowdFlows:      4,
		ServiceSweeps:   12,
		WarmFlows:       8,
		ColdStartCycles: 50_000,
		RebalanceEvery:  2 * time.Millisecond,
		TopK:            8,
		ImbalanceRatio:  1.3,
		LoadAlpha:       healthd.DefaultLoadAlpha,
	}
}

// QuickSkew returns a reduced configuration for tests and smoke runs.
func QuickSkew() SkewConfig {
	return SkewConfig{
		Workers:         8,
		Flows:           64,
		ZipfS:           1.1,
		OneShotFrac:     0.10,
		Rate:            400_000,
		Duration:        100 * time.Millisecond,
		CrowdStart:      30 * time.Millisecond,
		CrowdEnd:        60 * time.Millisecond,
		CrowdRate:       150_000,
		CrowdFlows:      2,
		ServiceSweeps:   12,
		WarmFlows:       8,
		ColdStartCycles: 50_000,
		RebalanceEvery:  2 * time.Millisecond,
		TopK:            8,
		ImbalanceRatio:  1.3,
		LoadAlpha:       healthd.DefaultLoadAlpha,
	}
}

// workload is the experiment's service lambda: an EMEM sweeper sized
// by ServiceSweeps, so per-request cost — and therefore hotspot
// queueing — is a config knob rather than a fixed constant.
func (c SkewConfig) workload() *workloads.Workload {
	return workloads.BatchSweeperVariant("skew_svc", workloads.BatchSweepID, c.ServiceSweeps)
}

// testbed down-bins the rack's NICs to 4 NPU threads each, as in the
// tenants experiment, so per-worker queueing shows at sane rates.
func (c SkewConfig) testbed(cfg Config) cluster.Testbed {
	tb := cfg.Testbed
	tb.NIC.Islands = 1
	tb.NIC.CoresPerIsland = 2
	tb.NIC.ThreadsPerCore = 2
	return tb
}

// SkewPolicyStat is one dispatch policy's outcome over the full run.
type SkewPolicyStat struct {
	// policyRun names the policy and fingerprints its simulation run:
	// Skew and SkewParallel produce identical values.
	policyRun
	// PhaseStat covers every request of the run; its latency
	// percentiles are over successful requests.
	PhaseStat
	// Migrations counts elephant-flow moves (pinned+mig only);
	// PinnedFlows is the standing pin count at run end.
	Migrations  int
	PinnedFlows int
	// Spread is max/mean of per-worker completion counts: 1.0 is a
	// perfectly even rack; higher means hot spots.
	Spread float64
	// Warm-state outcome summed across the rack's NICs.
	WarmHits, WarmMisses uint64
	WarmRate             float64
}

// SkewReport is the experiment's outcome.
type SkewReport struct {
	Rows []SkewPolicyStat
	// Domains is per policy run (1 serial; 1+Workers parallel).
	Domains int
	// Par is the parallel coordinator's work summed over the policy
	// runs (zero on a shared clock).
	Par sim.ParallelStats
	// Affine is the verdict: pinned+mig beats round-robin on p99 AND on
	// warm-hit rate.
	Affine bool
}

// Row returns the named policy's stats (nil if absent).
func (r *SkewReport) Row(policy string) *SkewPolicyStat { return rowOf(r.Rows, policy) }

// skewArrival is one scheduled request; the schedule is drawn up front
// from seeded generators so every policy, topology, and kernel consumes
// the exact same load.
type skewArrival struct {
	at   sim.Time
	flow uint64
	idx  int
}

// skewSchedule draws the base Zipf stream plus the flash crowd. All
// randomness comes from benchio's seeded Zipf generator — nothing
// depends on the simulator's RNG, so the schedule is one fixed function
// of the config.
func skewSchedule(cfg Config, sc SkewConfig) ([]skewArrival, error) {
	seed := uint64(cfg.Seed)
	flowKey := func(rank int) uint64 {
		return dispatch.FlowKey(fmt.Sprintf("c%04d", rank), workloads.BatchSweepID)
	}

	// exp draws a unit exponential from a Zipf stream's uniforms.
	exp := func(z *benchio.Zipf) func() float64 {
		return func() float64 { return -math.Log(1 - uniform(z)) }
	}

	var arrivals []skewArrival
	// Base stream: exponential interarrivals at Rate; each arrival draws
	// its flow rank from the Zipf; a OneShotFrac slice gets fresh keys.
	pop, err := benchio.NewZipf(sc.Flows, sc.ZipfS, seed)
	if err != nil {
		return nil, fmt.Errorf("skew: %w", err)
	}
	oneShots := 0
	poisson(0, sim.Time(sc.Duration), sc.Rate, exp(pop), func(at sim.Time) {
		flow := flowKey(pop.Next())
		if uniform(pop) < sc.OneShotFrac {
			oneShots++
			flow = dispatch.FlowKey(fmt.Sprintf("one%06d", oneShots), workloads.BatchSweepID)
		}
		arrivals = append(arrivals, skewArrival{at: at, flow: flow, idx: len(arrivals)})
	})
	// Flash crowd: an extra stream over [CrowdStart, CrowdEnd) hitting
	// the CrowdFlows hottest ranks uniformly — the elephants.
	crowd, err := benchio.NewZipf(sc.CrowdFlows, 0, seed^0xc0ffee)
	if err != nil {
		return nil, fmt.Errorf("skew: %w", err)
	}
	poisson(sim.Time(sc.CrowdStart), sim.Time(sc.CrowdEnd), sc.CrowdRate, exp(crowd), func(at sim.Time) {
		arrivals = append(arrivals, skewArrival{at: at, flow: flowKey(crowd.Next()), idx: len(arrivals)})
	})
	return arrivals, nil
}

// uniform draws a float64 in [0, 1) from a Zipf stream's raw bits.
func uniform(z *benchio.Zipf) float64 { return float64(z.Uint64()>>11) / (1 << 53) }

// Skew runs all three policies with each rack on one clock.
func Skew(cfg Config, sc SkewConfig) (*SkewReport, error) { return skew(cfg, sc, false) }

// SkewParallel runs the same three racks with each worker NIC in its
// own simulation domain (see rack); the report is bit-identical to
// Skew.
func SkewParallel(cfg Config, sc SkewConfig) (*SkewReport, error) { return skew(cfg, sc, true) }

func skew(cfg Config, sc SkewConfig, parallel bool) (*SkewReport, error) {
	sched, err := skewSchedule(cfg, sc)
	if err != nil {
		return nil, err
	}
	rep := &SkewReport{}
	for _, policy := range []string{SkewPolicyRR, SkewPolicyPinned, SkewPolicyMig} {
		web := sc.workload()
		rk, err := newRack(cfg, rackSpec{
			name: "skew", testbed: sc.testbed(cfg), workers: sc.Workers,
			nic: nicsim.Config{
				Dispatch:        nicsim.DispatchUniform,
				WarmFlows:       sc.WarmFlows,
				ColdStartCycles: sc.ColdStartCycles,
			},
			deploy: []*workloads.Workload{web},
		}, parallel)
		if err != nil {
			return nil, err
		}
		row, err := skewRun(cfg, sc, web, rk, sched, policy)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
		rep.Domains = rk.domains()
		rep.Par = rep.Par.Add(rk.parStats())
	}
	rep.Affine = skewVerdict(rep)
	return rep, nil
}

// skewRun is the harness for one policy's rack: issue the shared
// schedule through the policy's router, feed the healthd detector
// smoothed load on the virtual clock, rebalance on ticks, and
// summarize.
func skewRun(cfg Config, sc SkewConfig, web *workloads.Workload, rk *rack, sched []skewArrival, policy string) (SkewPolicyStat, error) {
	names := rk.names
	s := rk.ctrl
	end := sim.Time(sc.Duration)

	// Round-robin is a bare counter. The affine policies route through
	// the gateway's flow router; pinned+mig also feeds its flow-rate
	// sketch and runs the gateway's rebalancer step on every tick.
	table := dispatch.NewTable(names, uint64(cfg.Seed))
	var stats *dispatch.FlowStats
	if policy == SkewPolicyMig {
		stats = new(dispatch.FlowStats)
	}
	rr := 0

	// Load reports ride the same detector the live deployment's
	// rebalancer consumes: per-worker in-flight counts sampled at tick
	// instants, EWMA-smoothed so a single burst doesn't whipsaw pins.
	det := healthd.NewDetector(healthd.Config{
		Interval:  sc.RebalanceEvery,
		LoadAlpha: sc.LoadAlpha,
	})
	inflight := make([]int, len(names))
	completed := make([]uint64, len(names))
	led := newLedger(len(sched))
	var (
		migrations int
		seq        uint64
	)
	rk.every(sc.RebalanceEvery, end, func() {
		seq++
		now := time.Duration(s.Now())
		for i, name := range names {
			det.Observe(healthd.Heartbeat{Worker: name, Seq: seq, Load: inflight[i]}, now)
		}
		if stats != nil {
			var applied int
			table, applied = table.Rebalance(stats, det.Loads(now), sc.TopK, sc.ImbalanceRatio)
			migrations += applied
		}
	})

	for _, a := range sched {
		a := a
		payload := web.MakeRequest(a.idx)
		s.ScheduleAt(a.at, func() {
			if stats != nil {
				stats.Observe(a.flow)
			}
			w := table.Owner(a.flow)
			if policy == SkewPolicyRR {
				w = rr % len(names)
				rr++
			}
			inflight[w]++
			start := s.Now()
			rk.call(names[w], backend.Request{ID: web.ID, Payload: payload, Flow: a.flow}, func(res backend.Result) {
				inflight[w]--
				completed[w]++
				led.done(0, start, s.Now()-start, res.Err)
			})
		})
	}
	if err := rk.run(); err != nil {
		return SkewPolicyStat{}, fmt.Errorf("skew/%s: %w", policy, err)
	}

	row := SkewPolicyStat{
		policyRun:   policyRun{Policy: policy, Executed: rk.executed(), FinalClock: rk.clock()},
		PhaseStat:   led.phase(allClasses, wholeRun),
		Migrations:  migrations,
		PinnedFlows: table.Pinned(),
	}
	var sum, max uint64
	for _, c := range completed {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum > 0 {
		row.Spread = float64(max) * float64(len(names)) / float64(sum)
	}
	for _, name := range names {
		st := rk.device(name).Stats()
		row.WarmHits += st.WarmHits
		row.WarmMisses += st.WarmMisses
	}
	if total := row.WarmHits + row.WarmMisses; total > 0 {
		row.WarmRate = float64(row.WarmHits) / float64(total)
	}
	return row, nil
}

// skewVerdict: affinity pays iff pinned+mig beats round-robin on both
// tail latency and warm-hit rate.
func skewVerdict(rep *SkewReport) bool {
	rr, mig := rep.Row(SkewPolicyRR), rep.Row(SkewPolicyMig)
	if rr == nil || mig == nil {
		return false
	}
	return mig.P99 > 0 && mig.P99 < rr.P99 && mig.WarmRate > rr.WarmRate
}

// Bench converts the report to the benchmark-artifact schema
// (BENCH_skew.json): one row per policy, with virtual-clock results
// that benchio.GuardExact compares to a baseline exactly.
func (r *SkewReport) Bench() benchio.Report {
	rep := benchio.NewReport(nil)
	for _, row := range r.Rows {
		rep.Results = append(rep.Results, benchRow("skew/"+row.Policy, row.PhaseStat, row.FinalClock))
	}
	return rep
}

// RenderSkew prints the skew report.
func RenderSkew(rep *SkewReport) string {
	var b strings.Builder
	verdict := "NOT MET"
	if rep.Affine {
		verdict = "met"
	}
	fmt.Fprintf(&b, "Skew: flow affinity + elephant migration vs round-robin (%s)\n", verdict)
	fmt.Fprintf(&b, "  %-10s %9s %7s %9s %9s %9s %7s %6s %5s %5s\n",
		"policy", "requests", "errors", "p50", "p99", "p999", "spread", "warm%", "mig", "pins")
	for _, row := range rep.Rows {
		fmt.Fprintf(&b, "  %-10s %9d %7d %9v %9v %9v %7.2f %5.1f%% %5d %5d\n",
			row.Policy, row.Requests, row.Errors, row.P50, row.P99, row.P999,
			row.Spread, 100*row.WarmRate, row.Migrations, row.PinnedFlows)
	}
	writeFingerprint(&b, rep.Domains, rep.Rows)
	return b.String()
}
