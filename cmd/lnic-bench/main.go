// Command lnic-bench regenerates the tables and figures of the λ-NIC
// paper's evaluation (§6) on the simulated testbed and prints them as
// text.
//
// Usage:
//
//	lnic-bench [-quick] [-short] [-seed N] [-kernel ladder|heap] [-parallel]
//	           [-experiment all|table1|fig6|fig7|fig8|table2|table3|table4|fig9|optimizer|scaleout|loadcurve|nicclasses|ablations|breakdown|chaos|tenants|skew|boundary|rpcbench|lambdabench|simbench|rdmabench]
//	           [-trace-out trace.json] [-bench-out BENCH_rpc.json]
//	           [-bench-guard BENCH_sim_baseline.json] [-slo-out SLO_chaos.json]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -quick shrinks sample counts and the benchmark image for fast runs;
// the default configuration reproduces the numbers recorded in
// EXPERIMENTS.md. -short (as does -quick) shrinks each experiment
// outside "all" — chaos, tenants, skew, boundary and the four
// benchmark experiments — to its smoke-run configuration. -trace-out
// writes the breakdown experiment's request-lifecycle trace as Chrome
// trace-event JSON (load it in chrome://tracing or
// https://ui.perfetto.dev).
//
// -kernel selects the simulation event-queue kernel (default ladder;
// heap is the reference binary heap — results are bit-identical, only
// wall-clock speed differs). -parallel runs the experiments that have a
// multi-core path (scaleout, loadcurve, chaos, tenants, skew, boundary)
// with per-NIC simulation domains under the conservative parallel
// coordinator; results are bit-identical to the serial runs. After
// chaos, tenants, skew and boundary it prints the coordinator's
// counters (rounds, domain windows, inline rounds, events) as one
// "sim:" line on stderr.
// -cpuprofile and -memprofile write pprof profiles of the run.
//
// The chaos experiment (not part of "all") crash-stops a worker NIC
// under open-loop load and reports availability, error rate, and tail
// latency before/during/after the failure-detection loop evicts it.
// It also writes a windowed SLO error-budget report (availability and
// p99-latency objectives sampled each heartbeat) to -slo-out (default
// SLO_chaos.json). With -trace-out the request lifecycles plus the
// fault instants (as global markers) are exported.
//
// The tenants experiment (not part of "all") colocates an interactive
// tenant with a bursty batch tenant on a shared rack running
// tenant-weighted WFQ dispatch and per-tenant gateway admission, then
// checks the isolation bound: interactive p99 during the batch flood
// stays within bound and the error-budget burn returns to zero after.
// The run fails if the bound is violated. Per-tenant phase results go
// to -bench-out (default BENCH_tenants.json) and the interactive SLO
// timeline to -slo-out (default SLO_tenants.json); with -bench-guard
// the run fails unless every row equals the committed baseline's.
// -parallel runs one simulation domain per NIC with bit-identical
// results.
//
// The rpcbench experiment (not part of "all") measures the real RPC
// data plane — not the simulated testbed — over memnet and loopback
// UDP, closed- and open-loop, and writes req/s, latency percentiles,
// and allocs/op to -bench-out (default BENCH_rpc.json).
//
// The lambdabench experiment (not part of "all") measures the lambda
// execution engines themselves in wall-clock time: the optimized paper
// firmware is linked once with the reference interpreter and once with
// the closure-compiled engine, and each paper workload is driven
// through both, writing ns/op and allocs/op per engine to -bench-out
// (default BENCH_lambda.json).
//
// The rdmabench experiment (not part of "all") measures the one-sided
// RDMA fast path in virtual time: KV GETs served by one-sided reads of
// the EMEM-resident table versus the lambda-invocation path, the
// throughput-versus-window scalability curve, and doorbell-batched
// large transfers versus the per-fragment path. The report goes to
// -bench-out (default BENCH_rdma.json); with -bench-guard the run
// fails if any row regressed more than 20% against the committed
// baseline. Virtual-clock rates are machine-independent, so the guard
// is meaningful on any host.
//
// The skew experiment (not part of "all") drives a Zipf-skewed flow
// population plus a mid-run flash crowd through three gateway dispatch
// policies on the simulated testbed — round-robin spraying, pure
// consistent-hash flow pinning, and pinning with elephant-flow
// migration off healthd load reports — over one identical pre-drawn
// arrival schedule. It reports p50/p99/p999, completion spread across
// workers, warm-hit rate from the per-core warm-state model, and
// migration count per policy, and fails unless pinned+mig beats
// round-robin on both p99 and warm-hit rate. Per-policy percentiles go
// to -bench-out (default BENCH_skew.json); with -bench-guard the run
// fails unless every policy's row (requests, errors, rate and
// percentiles) equals the committed baseline's — the simulation is
// deterministic and machine-independent, so any difference is a
// behaviour change. -parallel runs one simulation domain per NIC with
// bit-identical results.
//
// The boundary experiment (not part of "all") replays a seeded diurnal
// load curve with a flash crowd through three placement policies —
// everything pinned to the NIC rack, everything pinned to the host
// fleet, and the dynamic placement engine that autoscales the NIC pool
// and migrates lambdas across the NIC/host boundary at runtime. It
// reports per-phase latency percentiles, NIC-core·time cost, and the
// migration/scale history, and fails unless the dynamic policy
// Pareto-dominates: tail latency no worse than the better static
// policy in every phase while burning strictly less NIC-core·time
// than the always-on rack. Per-policy and per-phase percentiles go to
// -bench-out (default BENCH_boundary.json); with -bench-guard the run
// fails unless every per-policy and per-phase row equals the committed
// baseline's, as for skew. -parallel runs one simulation domain per
// NIC plus one for the host with bit-identical results.
//
// The simbench experiment (not part of "all") measures the simulation
// kernel itself: single-thread events/sec for the ladder queue versus
// the binary heap (with and without event pooling), timeout-churn
// throughput, and the 16-NIC fleet packed into 1..16 parallel domains.
// The report goes to -bench-out (default BENCH_sim.json); with
// -bench-guard the run fails if any single-thread row regressed more
// than 20% against the committed baseline (rows are normalized to the
// same run's sched/heap reference, so the comparison is
// machine-independent).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"lambdanic/internal/benchio"
	"lambdanic/internal/experiments"
	"lambdanic/internal/obs"
	"lambdanic/internal/sim"
	"lambdanic/internal/telemetry"
)

// printParStats writes a parallel rack run's coordinator counters as
// one "sim:" line on stderr, so stdout and the JSON reports stay
// identical to the serial run's. A serial run has no rounds and prints
// nothing.
func printParStats(st sim.ParallelStats) {
	if st.Rounds == 0 {
		return
	}
	per := func(n uint64) float64 { return float64(n) / float64(st.Rounds) }
	fmt.Fprintf(os.Stderr, "sim: rounds=%d windows=%d (%.2f/round) inline=%d (%.0f%%) events=%d (%.2f/round)\n",
		st.Rounds, st.Windows, per(st.Windows), st.Inline, 100*per(st.Inline), st.Events, per(st.Events))
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lnic-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lnic-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced sample counts and image size")
	short := fs.Bool("short", false, "shrink chaos, tenants, skew, boundary and the benchmark experiments to smoke runs")
	seed := fs.Int64("seed", 42, "simulation seed")
	experiment := fs.String("experiment", "all",
		"which experiment to run: all, table1, fig6, fig7, fig8, table2, table3, table4, fig9, optimizer, scaleout, loadcurve, nicclasses, ablations, breakdown, chaos, tenants, skew, boundary, rpcbench, lambdabench, simbench, rdmabench")
	kernel := fs.String("kernel", "ladder",
		"simulation event-queue kernel: ladder or heap (bit-identical results)")
	parallel := fs.Bool("parallel", false,
		"run scaleout/loadcurve/chaos/tenants/skew/boundary with per-NIC parallel simulation domains")
	traceOut := fs.String("trace-out", "",
		"write the breakdown experiment's Chrome trace-event JSON to this file")
	benchOut := fs.String("bench-out", "",
		"write the benchmark experiment's JSON report to this file (default BENCH_rpc.json for rpcbench, BENCH_lambda.json for lambdabench, BENCH_sim.json for simbench, BENCH_rdma.json for rdmabench, BENCH_tenants.json for tenants, BENCH_skew.json for skew, BENCH_boundary.json for boundary)")
	benchGuard := fs.String("bench-guard", "",
		"fail if the simbench/rdmabench report regresses against this baseline JSON, or the tenants/skew/boundary report differs from it")
	sloOut := fs.String("slo-out", "",
		"write the chaos or tenants experiment's SLO error-budget report JSON to this file (default SLO_chaos.json or SLO_tenants.json)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	switch strings.ToLower(*kernel) {
	case "", "ladder":
		cfg.Kernel = sim.KernelLadder
	case "heap":
		cfg.Kernel = sim.KernelHeap
	default:
		return fmt.Errorf("unknown -kernel %q (want ladder or heap)", *kernel)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lnic-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lnic-bench: memprofile:", err)
			}
		}()
	}

	want := strings.ToLower(*experiment)
	ran := false
	out := func(s string) {
		fmt.Println(s)
		ran = true
	}

	if want == "all" || want == "table1" {
		out(experiments.RenderTable1(experiments.Table1()))
	}
	if want == "all" || want == "fig6" {
		series, err := experiments.Figure6(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderFigure6(series))
	}
	if want == "all" || want == "fig7" {
		points, err := experiments.Figure7(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderFigure7(points))
	}
	if want == "all" || want == "fig8" || want == "table2" {
		results, err := experiments.Figure8Table2(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderFigure8Table2(results))
	}
	if want == "all" || want == "table3" {
		rows, err := experiments.Table3(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderTable3(rows))
	}
	if want == "all" || want == "table4" {
		rows, err := experiments.Table4(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderTable4(rows))
	}
	if want == "all" || want == "fig9" {
		results, err := experiments.Figure9(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderFigure9(results))
	}
	if want == "all" || want == "scaleout" {
		run := experiments.ScaleOut
		if *parallel {
			run = experiments.ParallelScaleOut
		}
		points, err := run(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderScaleOut(points))
	}
	if want == "all" || want == "optimizer" {
		r, err := experiments.MeasureOptimizerImpact(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderOptimizerImpact(r))
	}
	if want == "all" || want == "loadcurve" {
		run := experiments.LoadLatencyCurve
		if *parallel {
			run = experiments.LoadLatencyCurveParallel
		}
		points, err := run(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderLoadCurve(points))
	}
	if want == "all" || want == "nicclasses" {
		results, err := experiments.SmartNICClasses(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderNICClasses(results))
	}
	if want == "all" || want == "ablations" {
		results, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderAblations(results))
	}
	if want == "all" || want == "breakdown" {
		rep, err := experiments.LatencyBreakdown(cfg)
		if err != nil {
			return err
		}
		out(experiments.RenderLatencyBreakdown(rep))
		if *traceOut != "" {
			if err := obs.WriteChromeTraceFile(*traceOut, rep.Requests); err != nil {
				return err
			}
			fmt.Printf("lnic-bench: wrote Chrome trace (%d requests) to %s\n",
				len(rep.Requests), *traceOut)
		}
	}
	if want == "chaos" {
		chCfg := experiments.DefaultChaos()
		if *short || *quick {
			chCfg = experiments.QuickChaos()
		}
		runChaos := experiments.Chaos
		if *parallel {
			runChaos = experiments.ChaosParallel
		}
		rep, err := runChaos(cfg, chCfg)
		if err != nil {
			return err
		}
		printParStats(rep.Par)
		out(experiments.RenderChaos(rep))
		if err := writeSLO(*sloOut, "SLO_chaos.json", rep.SLO); err != nil {
			return err
		}
		if *traceOut != "" {
			if err := obs.WriteChromeTraceFileWithMarks(*traceOut, rep.Requests, rep.Marks); err != nil {
				return err
			}
			fmt.Printf("lnic-bench: wrote Chrome trace (%d requests, %d fault marks) to %s\n",
				len(rep.Requests), len(rep.Marks), *traceOut)
		}
	}
	if want == "tenants" {
		tnCfg := experiments.DefaultTenants()
		if *short || *quick {
			tnCfg = experiments.QuickTenants()
		}
		runTenants := experiments.Tenants
		if *parallel {
			runTenants = experiments.TenantsParallel
		}
		rep, err := runTenants(cfg, tnCfg)
		if err != nil {
			return err
		}
		printParStats(rep.Par)
		out(experiments.RenderTenants(rep))
		if err := benchReport(*benchOut, "BENCH_tenants.json", *benchGuard, rep.Bench(),
			"tenants rows identical to those", func(baseline, current benchio.Report) error {
				return benchio.GuardExact(baseline, current, "vip/", "bulk/")
			}); err != nil {
			return err
		}
		if err := writeSLO(*sloOut, "SLO_tenants.json", rep.SLO); err != nil {
			return err
		}
		if !rep.Isolated {
			return fmt.Errorf("tenants: isolation bound violated (interactive p99 during burst %v > %v, final burn %.2fx)",
				rep.DuringP99, rep.IsolationP99, rep.FinalBurn)
		}
	}
	if want == "skew" {
		skCfg := experiments.DefaultSkew()
		if *short || *quick {
			skCfg = experiments.QuickSkew()
		}
		runSkew := experiments.Skew
		if *parallel {
			runSkew = experiments.SkewParallel
		}
		rep, err := runSkew(cfg, skCfg)
		if err != nil {
			return err
		}
		printParStats(rep.Par)
		out(experiments.RenderSkew(rep))
		// The run is virtual-clock and deterministic, so every policy's
		// row must equal the baseline's exactly.
		if err := benchReport(*benchOut, "BENCH_skew.json", *benchGuard, rep.Bench(),
			"skew rows identical to those", func(baseline, current benchio.Report) error {
				return benchio.GuardExact(baseline, current, "skew/")
			}); err != nil {
			return err
		}
		if !rep.Affine {
			return fmt.Errorf("skew: affinity verdict not met (pinned+mig must beat rr on p99 and warm-hit rate)")
		}
	}
	if want == "boundary" {
		bdCfg := experiments.DefaultBoundary()
		if *short || *quick {
			bdCfg = experiments.QuickBoundary()
		}
		runBoundary := experiments.Boundary
		if *parallel {
			runBoundary = experiments.BoundaryParallel
		}
		rep, err := runBoundary(cfg, bdCfg)
		if err != nil {
			return err
		}
		printParStats(rep.Par)
		out(experiments.RenderBoundary(rep))
		// As for skew: every per-policy and per-phase row must equal
		// the baseline's exactly.
		if err := benchReport(*benchOut, "BENCH_boundary.json", *benchGuard, rep.Bench(),
			"boundary rows identical to those", func(baseline, current benchio.Report) error {
				return benchio.GuardExact(baseline, current, "boundary/")
			}); err != nil {
			return err
		}
		if !rep.Pareto {
			return fmt.Errorf("boundary: Pareto verdict not met (dynamic must match the better static tail per phase and burn less NIC-core·time than static-nic)")
		}
	}
	if want == "rpcbench" {
		rbCfg := experiments.DefaultRPCBench()
		if *short || *quick {
			rbCfg = experiments.QuickRPCBench()
		}
		rep, err := experiments.RPCBench(rbCfg, *seed)
		if err != nil {
			return err
		}
		out(experiments.RenderRPCBench(rep))
		if err := benchReport(*benchOut, "BENCH_rpc.json", "", rep, "", nil); err != nil {
			return err
		}
	}
	if want == "lambdabench" {
		lbCfg := experiments.DefaultLambdaBench()
		if *short || *quick {
			lbCfg = experiments.QuickLambdaBench()
		}
		rep, err := experiments.LambdaBench(lbCfg)
		if err != nil {
			return err
		}
		out(experiments.RenderLambdaBench(rep))
		if err := benchReport(*benchOut, "BENCH_lambda.json", "", rep, "", nil); err != nil {
			return err
		}
	}
	if want == "rdmabench" {
		rbCfg := experiments.DefaultRdmaBench()
		if *short || *quick {
			rbCfg = experiments.QuickRdmaBench()
		}
		rep, err := experiments.RdmaBench(cfg, rbCfg)
		if err != nil {
			return err
		}
		out(experiments.RenderRdmaBench(rep))
		// All rates are virtual-clock and thus machine-independent;
		// every kvget and large row is guarded, normalized to the
		// single-client lambda baseline.
		if err := benchReport(*benchOut, "BENCH_rdma.json", *benchGuard, rep,
			"rdmabench within 20%", func(baseline, current benchio.Report) error {
				return benchio.Guard(baseline, current, "kvget/lambda/c1", 0.20, "kvget/", "large/")
			}); err != nil {
			return err
		}
	}
	if want == "simbench" {
		sbCfg := experiments.DefaultSimBench()
		if *short || *quick {
			sbCfg = experiments.QuickSimBench()
		}
		rep, err := experiments.SimBench(cfg, sbCfg)
		if err != nil {
			return err
		}
		out(experiments.RenderSimBench(rep))
		// Guard only the single-thread rows: raw rates are
		// normalized to this run's sched/heap, so the check holds
		// across machines; domain-scaling rows depend on the core
		// count and are recorded, not gated.
		if err := benchReport(*benchOut, "BENCH_sim.json", *benchGuard, rep,
			"simbench within 20%", func(baseline, current benchio.Report) error {
				return benchio.Guard(baseline, current, "sched/heap", 0.20, "sched/", "timers/")
			}); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
}

// writeSLO writes an experiment's SLO report JSON to outPath (fallback
// when empty); a nil report writes nothing.
func writeSLO(outPath, fallback string, slo *telemetry.SLOReport) error {
	if slo == nil {
		return nil
	}
	if outPath == "" {
		outPath = fallback
	}
	data, err := slo.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("lnic-bench: wrote SLO report (%d samples) to %s\n", len(slo.Samples), outPath)
	return nil
}

// benchReport is the shared artifact wiring every benchmark-producing
// experiment goes through: write the report to the -bench-out path
// (falling back to the experiment's default filename), then, when
// -bench-guard names a committed baseline and the experiment supplies
// a check, fail the run on regression. okMsg describes the passing
// guard, e.g. "skew rows identical to those".
func benchReport(outPath, fallback, guardPath string, rep benchio.Report,
	okMsg string, check func(baseline, current benchio.Report) error) error {
	if outPath == "" {
		outPath = fallback
	}
	if err := benchio.WriteJSON(outPath, rep); err != nil {
		return err
	}
	fmt.Printf("lnic-bench: wrote %d benchmark results to %s\n",
		len(rep.Results), outPath)
	if guardPath == "" || check == nil {
		return nil
	}
	baseline, err := benchio.ReadJSON(guardPath)
	if err != nil {
		return err
	}
	if err := check(baseline, rep); err != nil {
		return err
	}
	fmt.Printf("lnic-bench: %s of baseline %s\n", okMsg, guardPath)
	return nil
}
