package experiments

import (
	"fmt"
	"strings"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/benchio"
	"lambdanic/internal/cluster"
	"lambdanic/internal/core"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/telemetry"
	"lambdanic/internal/tenant"
	"lambdanic/internal/workloads"
)

// The tenants experiment closes the multi-tenancy loop end to end in
// virtual time: an interactive tenant and a bursty batch tenant share
// one rack of worker NICs. Both tenants' lambdas are colocated on every
// NIC — multi-tenancy by time-sharing, not partitioning — with the NIC
// scheduler running tenant-weighted hierarchical WFQ and the gateway
// edge running per-tenant token-bucket admission on the simulation's
// virtual clock. Mid-run the batch tenant floods the rack far beyond
// its rate quota: admission sheds the overflow, the NIC scheduler keeps
// serving the interactive tenant's queue at its higher weight, and the
// telemetry plane's SLO tracker grades the interactive tenant's p99
// against the isolation bound throughout. The report buckets both
// tenants' requests into before/during/after phases around the burst,
// so the isolation claim — interactive p99 within bound during the
// burst, error-budget burn back to zero after — is checked against the
// same windows an operator would watch.

// TenantsConfig sizes the multi-tenant isolation experiment.
type TenantsConfig struct {
	// Workers is the rack's worker-NIC count (default 64). Each NIC is
	// down-binned to 1 island × 2 cores × 2 threads so tenant
	// contention is visible at sane request counts.
	Workers int
	// InteractiveRate is the interactive tenant's open-loop offered
	// load over the whole run (default 40,000 req/s).
	InteractiveRate float64
	// BurstRate is the batch tenant's offered load during the burst
	// (default 1,200,000 req/s — far beyond both its admission quota
	// and the rack's batch capacity).
	BurstRate float64
	// Duration is the virtual run length (default 300 ms).
	Duration time.Duration
	// BurstStart/BurstEnd bound the batch flood (defaults 60/180 ms).
	BurstStart, BurstEnd time.Duration
	// BatchSweeps sizes one batch request's EMEM scan (default 400
	// sweeps ≈ 320 µs of NPU time — ~100× an interactive request).
	BatchSweeps int
	// InteractiveWeight and BatchWeight are the tenants' WFQ weights
	// (defaults 8 and 1).
	InteractiveWeight, BatchWeight float64
	// BatchRatePerSec/BatchBurst are the batch tenant's admission
	// quota (defaults 900,000/s, burst 20,000).
	BatchRatePerSec, BatchBurst float64
	// SampleInterval is the SLO sampling period (default 10 ms; the
	// rolling window is 4 samples wide).
	SampleInterval time.Duration
	// IsolationP99 is the isolation bound: the interactive tenant's
	// p99 must stay below it in every phase (default 2 ms).
	IsolationP99 time.Duration
}

// DefaultTenants returns the full-size experiment (the 64-NIC rack).
func DefaultTenants() TenantsConfig {
	return TenantsConfig{
		Workers:           64,
		InteractiveRate:   40_000,
		BurstRate:         1_200_000,
		Duration:          300 * time.Millisecond,
		BurstStart:        60 * time.Millisecond,
		BurstEnd:          180 * time.Millisecond,
		BatchSweeps:       workloads.DefaultBatchSweeps,
		InteractiveWeight: 8,
		BatchWeight:       1,
		BatchRatePerSec:   900_000,
		BatchBurst:        20_000,
		SampleInterval:    10 * time.Millisecond,
		IsolationP99:      2 * time.Millisecond,
	}
}

// QuickTenants returns a reduced configuration for tests and smoke
// runs.
func QuickTenants() TenantsConfig {
	return TenantsConfig{
		Workers:           8,
		InteractiveRate:   20_000,
		BurstRate:         250_000,
		Duration:          150 * time.Millisecond,
		BurstStart:        40 * time.Millisecond,
		BurstEnd:          90 * time.Millisecond,
		BatchSweeps:       workloads.DefaultBatchSweeps,
		InteractiveWeight: 8,
		BatchWeight:       1,
		BatchRatePerSec:   120_000,
		BatchBurst:        2_000,
		SampleInterval:    5 * time.Millisecond,
		IsolationP99:      2 * time.Millisecond,
	}
}

// testbed down-bins the rack's NICs to 4 NPU threads each; everything
// else (clock, memory latencies, link) is the paper's testbed.
func (c TenantsConfig) testbed(cfg Config) cluster.Testbed {
	tb := cfg.Testbed
	tb.NIC.Islands = 1
	tb.NIC.CoresPerIsland = 2
	tb.NIC.ThreadsPerCore = 2
	return tb
}

// Tenant names for the experiment.
const (
	tenantsInteractive = "vip"
	tenantsBatch       = "bulk"
)

// TenantsReport is the experiment's outcome.
type TenantsReport struct {
	// Phases: before/during/after the burst, per tenant (the Class),
	// bucketed by arrival time.
	Phases []PhaseStat
	// Shed is the admission controller's total throttle count.
	Shed uint64
	// InteractiveCompleted/BatchCompleted are the NIC schedulers' own
	// per-tenant completion counters summed across the rack — the
	// device-side cross-check of the harness's sample counts.
	InteractiveCompleted, BatchCompleted uint64
	// IsolationP99 echoes the bound; DuringP99 is the interactive
	// tenant's p99 during the burst; Isolated is the verdict
	// (DuringP99 within bound AND final burn zero).
	IsolationP99 time.Duration
	DuringP99    time.Duration
	Isolated     bool
	// WorstBurn/FinalBurn are the interactive latency objective's
	// error-budget burn extremes from the SLO tracker.
	WorstBurn, FinalBurn float64
	// Executed / FinalClock / Domains are the determinism fingerprint:
	// Tenants and TenantsParallel produce identical values.
	Executed   uint64
	FinalClock time.Duration
	Domains    int
	// Par is the parallel coordinator's work (zero on a shared clock).
	Par sim.ParallelStats
	// SLO is the interactive tenant's full error-budget timeline.
	SLO *telemetry.SLOReport
}

// tenantsPlane is the control-plane state shared by both topologies:
// the real workload manager with tenants registered and bound, the
// admission controller loaded with the batch tenant's quota, and the
// classifier/weights the NIC schedulers consume.
type tenantsPlane struct {
	web, batch    *workloads.Workload
	vipID, bulkID uint32
	tenantOf      func(lambdaID uint32) uint32
	weights       map[uint32]float64
	adm           *tenant.Admission
}

func newTenantsPlane(cfg Config, tc TenantsConfig) (*tenantsPlane, error) {
	mgr, err := core.NewManager(1, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	vip, err := mgr.RegisterTenant(tenant.Tenant{
		Name:   tenantsInteractive,
		Class:  tenant.ClassInteractive,
		Weight: tc.InteractiveWeight,
	})
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	bulk, err := mgr.RegisterTenant(tenant.Tenant{
		Name:   tenantsBatch,
		Class:  tenant.ClassBatch,
		Weight: tc.BatchWeight,
		Quota:  tenant.Quota{RatePerSec: tc.BatchRatePerSec, Burst: tc.BatchBurst},
	})
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	web := workloads.WebServer()
	batch := workloads.BatchSweeperVariant("batch_sweep", workloads.BatchSweepID, tc.BatchSweeps)
	webID, err := mgr.RegisterFor(tenantsInteractive, web)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	batchID, err := mgr.RegisterFor(tenantsBatch, batch)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	// Snapshot the binding into a plain map: the classifier runs on the
	// NIC hot path in every domain, so it must not take registry locks.
	byLambda := map[uint32]uint32{webID: vip.ID, batchID: bulk.ID}
	adm := tenant.NewAdmission()
	if err := adm.SetQuota(vip); err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	if err := adm.SetQuota(bulk); err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	return &tenantsPlane{
		web: web, batch: batch,
		vipID: vip.ID, bulkID: bulk.ID,
		tenantOf: func(lambdaID uint32) uint32 { return byLambda[lambdaID] },
		weights:  mgr.Tenants().Weights(),
		adm:      adm,
	}, nil
}

// Tenants runs the multi-tenant isolation experiment with the whole
// rack on one clock.
func Tenants(cfg Config, tc TenantsConfig) (*TenantsReport, error) {
	return tenants(cfg, tc, false)
}

// TenantsParallel runs the same experiment with each worker NIC in its
// own simulation domain (see rack); the report is bit-identical to
// Tenants.
func TenantsParallel(cfg Config, tc TenantsConfig) (*TenantsReport, error) {
	return tenants(cfg, tc, true)
}

// tenants builds the rack and runs admission, load, SLO grading, and
// phase bucketing over it.
func tenants(cfg Config, tc TenantsConfig, parallel bool) (*TenantsReport, error) {
	plane, err := newTenantsPlane(cfg, tc)
	if err != nil {
		return nil, err
	}
	rk, err := newRack(cfg, rackSpec{
		name: "tenants", testbed: tc.testbed(cfg), workers: tc.Workers,
		nic: nicsim.Config{
			Dispatch:      nicsim.DispatchTenantWFQ,
			TenantOf:      plane.tenantOf,
			TenantWeights: plane.weights,
		},
		deploy: []*workloads.Workload{plane.web, plane.batch},
	}, parallel)
	if err != nil {
		return nil, err
	}
	names := rk.names
	s := rk.ctrl
	end := sim.Time(tc.Duration)

	// The interactive tenant's SLO, graded on the control domain's
	// virtual clock every sampling interval.
	slo, err := newRackSLO("vip-availability", "vip-p99", tc.SampleInterval, tc.IsolationP99)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	rk.every(tc.SampleInterval, end, func() { slo.Sample(s.Now()) })

	// Load: both tenants' arrival schedules are drawn up front from the
	// control domain's seeded source — interactive first, then the
	// burst — so the whole run is a pure function of the seed. Every
	// arrival passes gateway admission on the virtual clock before any
	// wire event is scheduled; shed requests never touch the rack.
	led := newLedger(0)
	next := 0
	// issue returns an emit for one tenant's arrivals, numbering its
	// requests from zero.
	issue := func(wl *workloads.Workload, tenantID uint32) func(sim.Time) {
		class, i := int(tenantID), 0
		return func(at sim.Time) {
			payload := wl.MakeRequest(i)
			i++
			s.ScheduleAt(at, func() {
				start := s.Now()
				if err := plane.adm.Admit(tenantID, start); err != nil {
					led.shed(class, start)
					return
				}
				name := names[next%len(names)]
				next++
				rk.call(name, backend.Request{ID: wl.ID, Payload: payload}, func(res backend.Result) {
					lat := s.Now() - start
					if tenantID == plane.vipID {
						slo.Windowed().Observe(lat, res.Err != nil)
					}
					led.done(class, start, lat, res.Err)
				})
			})
		}
	}
	exp := s.Rand().ExpFloat64
	poisson(0, end, tc.InteractiveRate, exp, issue(plane.web, plane.vipID))
	poisson(sim.Time(tc.BurstStart), sim.Time(tc.BurstEnd), tc.BurstRate, exp, issue(plane.batch, plane.bulkID))

	if err := rk.run(); err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}

	rep := &TenantsReport{
		IsolationP99: tc.IsolationP99,
		Shed:         plane.adm.TotalShed(),
		Executed:     rk.executed(),
		FinalClock:   rk.clock(),
		Domains:      rk.domains(),
		Par:          rk.parStats(),
	}
	for _, name := range names {
		rep.InteractiveCompleted += rk.device(name).TenantCompleted(plane.vipID)
		rep.BatchCompleted += rk.device(name).TenantCompleted(plane.bulkID)
	}
	sloReport := slo.Report()
	rep.SLO = &sloReport
	for _, sum := range sloReport.Summary {
		if sum.Name == "vip-p99" {
			rep.WorstBurn, rep.FinalBurn = sum.WorstBurnRate, sum.FinalBurnRate
		}
	}

	// Phase bucketing by arrival time, per tenant.
	spans := []span{
		{"before", 0, sim.Time(tc.BurstStart)},
		{"during", sim.Time(tc.BurstStart), sim.Time(tc.BurstEnd)},
		{"after", sim.Time(tc.BurstEnd), end},
	}
	for _, tn := range []struct {
		name string
		id   uint32
	}{
		{tenantsInteractive, plane.vipID},
		{tenantsBatch, plane.bulkID},
	} {
		for _, st := range led.phases(int(tn.id), spans) {
			st.Class = tn.name
			rep.Phases = append(rep.Phases, st)
			if tn.name == tenantsInteractive && st.Phase == "during" {
				rep.DuringP99 = st.P99
			}
		}
	}
	rep.Isolated = rep.DuringP99 > 0 && rep.DuringP99 <= tc.IsolationP99 && rep.FinalBurn == 0
	return rep, nil
}

// Bench converts the report to the benchmark-artifact schema
// (BENCH_tenants.json): one row per tenant × phase.
func (r *TenantsReport) Bench() benchio.Report {
	rep := benchio.NewReport(nil)
	for _, p := range r.Phases {
		row := benchRow(p.Class+"/"+p.Phase, p, p.End-p.Start)
		// The isolation bound is a p99: tenant rows carry p50 and p99
		// only, as the committed baseline does.
		row.P999Ns = 0
		rep.Results = append(rep.Results, row)
	}
	return rep
}

// RenderTenants prints the tenants report.
func RenderTenants(rep *TenantsReport) string {
	var b strings.Builder
	verdict := "VIOLATED"
	if rep.Isolated {
		verdict = "met"
	}
	fmt.Fprintf(&b, "Tenants: interactive p99 during burst %v (bound %v, %s); admission shed %d; burn worst %.2fx final %.2fx\n",
		rep.DuringP99, rep.IsolationP99, verdict, rep.Shed, rep.WorstBurn, rep.FinalBurn)
	fmt.Fprintf(&b, "  NIC completions: %s=%d %s=%d (%d domains, %d events)\n",
		tenantsInteractive, rep.InteractiveCompleted, tenantsBatch, rep.BatchCompleted,
		rep.Domains, rep.Executed)
	fmt.Fprintf(&b, "  %-6s %-7s %9s %7s %7s %11s %11s\n",
		"tenant", "phase", "requests", "errors", "shed", "p50", "p99")
	for _, p := range rep.Phases {
		fmt.Fprintf(&b, "  %-6s %-7s %9d %7d %7d %11v %11v\n",
			p.Class, p.Phase, p.Requests, p.Errors, p.Shed, p.P50, p.P99)
	}
	if rep.SLO != nil {
		for _, line := range strings.Split(strings.TrimRight(rep.SLO.Text(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}
