package main

// The simulator workloads call the skew, tenants and boundary
// experiments as lnic-bench does: full size on the serial ladder kernel
// (sim-rack), or -short size through the *Parallel entry points
// (sim-rack-par). The scenarios' seed is the benchmark seed.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lambdanic/internal/experiments"
)

// scenarioRun is one experiment call's checked result.
type scenarioRun struct {
	requests int64  // simulated requests completed
	events   uint64 // simulation events fired
	verdict  bool
	// fingerprint is events@clock per policy, without the domain count
	// (serial and parallel runs differ only there).
	fingerprint string
	virtP99     time.Duration
}

type scenario struct {
	name  string
	sizes func(full bool) string
	run   func(cfg experiments.Config, full, par bool) (*scenarioRun, error)
}

var scenarios = []scenario{
	{
		name: "skew",
		sizes: func(full bool) string {
			c := experiments.QuickSkew()
			if full {
				c = experiments.DefaultSkew()
			}
			return fmt.Sprintf("workers=%d flows=%d rate=%.0f duration=%v", c.Workers, c.Flows, c.Rate, c.Duration)
		},
		run: func(cfg experiments.Config, full, par bool) (*scenarioRun, error) {
			sc, call := experiments.QuickSkew(), experiments.Skew
			if full {
				sc = experiments.DefaultSkew()
			}
			if par {
				call = experiments.SkewParallel
			}
			rep, err := call(cfg, sc)
			if err != nil {
				return nil, err
			}
			r := &scenarioRun{verdict: rep.Affine}
			var fp []string
			for _, row := range rep.Rows {
				r.requests += int64(row.Requests - row.Errors)
				r.events += row.Executed
				fp = append(fp, fmt.Sprintf("%s=%d@%v", row.Policy, row.Executed, row.FinalClock))
			}
			r.fingerprint = strings.Join(fp, " ")
			if row := rep.Row(experiments.SkewPolicyMig); row != nil {
				r.virtP99 = row.P99
			}
			return r, nil
		},
	},
	{
		name: "tenants",
		sizes: func(full bool) string {
			c := experiments.QuickTenants()
			if full {
				c = experiments.DefaultTenants()
			}
			return fmt.Sprintf("workers=%d interactive-rate=%.0f burst-rate=%.0f duration=%v", c.Workers, c.InteractiveRate, c.BurstRate, c.Duration)
		},
		run: func(cfg experiments.Config, full, par bool) (*scenarioRun, error) {
			tc, call := experiments.QuickTenants(), experiments.Tenants
			if full {
				tc = experiments.DefaultTenants()
			}
			if par {
				call = experiments.TenantsParallel
			}
			rep, err := call(cfg, tc)
			if err != nil {
				return nil, err
			}
			r := &scenarioRun{verdict: rep.Isolated, events: rep.Executed, virtP99: rep.DuringP99,
				fingerprint: fmt.Sprintf("all=%d@%v", rep.Executed, rep.FinalClock)}
			for _, ph := range rep.Phases {
				r.requests += int64(ph.Requests - ph.Errors)
			}
			return r, nil
		},
	},
	{
		name: "boundary",
		sizes: func(full bool) string {
			c := experiments.QuickBoundary()
			if full {
				c = experiments.DefaultBoundary()
			}
			return fmt.Sprintf("nics=%d web-peak-rate=%.0f peak=%v", c.NICs, c.WebPeakRate, c.PeakDur)
		},
		run: func(cfg experiments.Config, full, par bool) (*scenarioRun, error) {
			bc, call := experiments.QuickBoundary(), experiments.Boundary
			if full {
				bc = experiments.DefaultBoundary()
			}
			if par {
				call = experiments.BoundaryParallel
			}
			rep, err := call(cfg, bc)
			if err != nil {
				return nil, err
			}
			r := &scenarioRun{verdict: rep.Pareto}
			var fp []string
			for _, row := range rep.Rows {
				r.requests += int64(row.Requests - row.Errors)
				r.events += row.Executed
				fp = append(fp, fmt.Sprintf("%s=%d@%v", row.Policy, row.Executed, row.FinalClock))
			}
			r.fingerprint = strings.Join(fp, " ")
			if row := rep.Row(experiments.BoundaryPolicyDyn); row != nil {
				r.virtP99 = row.P99
			}
			return r, nil
		},
	},
}

// simSetupReps is how many times set-up runs; setup_s is the median.
const simSetupReps = 3

// runSim sets up by running the three scenarios at -short size on the
// serial kernel simSetupReps times — a warm-up, a determinism check
// (every repetition must print the same fingerprints) and, for
// sim-rack-par, the serial reference the parallel fingerprints must
// equal — then measures whole rounds of the three scenarios.
func runSim(par bool, seed int64, measure time.Duration, traced bool, outDir string) ([]*outcome, error) {
	cfg := experiments.Default()
	cfg.Seed = seed
	full := !par

	var setups []float64
	var ref []string
	for i := 0; i < simSetupReps; i++ {
		t0 := time.Now()
		var fps []string
		for _, sc := range scenarios {
			r, err := sc.run(cfg, false, false)
			if err != nil {
				return nil, fmt.Errorf("set-up %s: %w", sc.name, err)
			}
			fps = append(fps, r.fingerprint)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ref == nil {
			ref = fps
		} else if strings.Join(fps, "|") != strings.Join(ref, "|") {
			return nil, fmt.Errorf("set-up: serial -short fingerprints differ between repetitions: %v vs %v", fps, ref)
		}
	}

	note := fmt.Sprintf("sim-rack: scenarios at full size on the serial ladder kernel, seed %d, rounds time-boxed to %v (at least one)", seed, measure)
	if par {
		note = fmt.Sprintf("sim-rack-par: scenarios at -short size on sim.Parallel (one domain per NIC, ladder kernels), seed %d, rounds time-boxed to %v (at least one)", seed, measure)
	}
	notes := []string{note}
	for _, sc := range scenarios {
		notes = append(notes, fmt.Sprintf("  %-8s %s", sc.name, sc.sizes(full)))
	}

	if traced {
		// The first full-size round takes fresh pages from the OS; later
		// rounds reuse freed spans and pay to zero them (the NICs' 64 MiB
		// RDMA staging regions). One discarded round first puts the
		// untraced and traced phases on the same footing.
		for _, sc := range scenarios {
			if _, err := sc.run(cfg, full, par); err != nil {
				return nil, fmt.Errorf("%s: %w", sc.name, err)
			}
		}
	}
	profiles := []bool{false}
	if traced {
		profiles = append(profiles, true)
	}
	var phases []*outcome
	for _, profile := range profiles {
		o, err := simPhase(cfg, full, par, measure, ref, profile, outDir)
		if err != nil {
			return nil, err
		}
		o.e2e["setup_s"] = median(append([]float64(nil), setups...))
		o.notes = append(append([]string(nil), notes...), o.notes...)
		o.notes = append(o.notes, "  setup_s(each)="+fmtFloats(setups))
		phases = append(phases, o)
	}
	return phases, nil
}

// simPhase runs whole rounds of the three scenarios for about measure.
func simPhase(cfg experiments.Config, full, par bool, measure time.Duration, ref []string, profile bool, outDir string) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}}
	var prof *cpuProfiler
	if profile {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	rt0 := readRuntime()
	heap := startHeapSampler()
	start := time.Now()
	var perReqNS []int64
	var requests int64
	var events uint64
	var first []string
	var last []*scenarioRun
	rounds := 0
	for {
		t0 := time.Now()
		var fps []string
		var roundReqs int64
		last = last[:0]
		for i, sc := range scenarios {
			c0 := time.Now()
			r, err := sc.run(cfg, full, par)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.name, err)
			}
			o.notes = append(o.notes, fmt.Sprintf("  call %-8s wall=%.3fs requests=%d events=%d",
				sc.name, time.Since(c0).Seconds(), r.requests, r.events))
			roundReqs += r.requests
			events += r.events
			fps = append(fps, r.fingerprint)
			last = append(last, r)
			// sim-rack-par must reproduce the serial kernel exactly; a
			// serial round must reproduce the first round.
			want := ""
			if par {
				want = ref[i]
			} else if first != nil {
				want = first[i]
			}
			wrong := want != "" && r.fingerprint != want
			if wrong {
				o.wrong++
				o.notes = append(o.notes, fmt.Sprintf("WRONG: %s fingerprint %q, want %q", sc.name, r.fingerprint, want))
			}
			// The first round's three scenarios are the operations.
			// Later rounds rerun the same simulations for timing, so a
			// verdict counts once however many rounds fit; a later
			// round counts only if it fails to reproduce the first.
			if first == nil || wrong {
				o.attempted++
				if !r.verdict || wrong {
					o.failed++
				}
			}
			if first == nil && !r.verdict {
				o.notes = append(o.notes, fmt.Sprintf("FAILED: %s verdict not met (seed %d)", sc.name, cfg.Seed))
			}
		}
		if first == nil {
			first = fps
		}
		// A round's "latency" is its host time per simulated request.
		perReqNS = append(perReqNS, int64(time.Since(t0))/max(roundReqs, 1))
		requests += roundReqs
		rounds++
		// Stop when another round of the same length would overrun.
		if time.Since(start)+time.Since(t0) > measure {
			break
		}
	}
	wall := time.Since(start)
	peak := heap.stopMB()
	rt1 := readRuntime()
	var samples []stackSample
	if prof != nil {
		var err error
		name := "sim-rack"
		if par {
			name = "sim-rack-par"
		}
		if samples, err = prof.stop(filepath.Join(outDir, "profile-"+name+".pprof")); err != nil {
			return nil, err
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("  rounds=%d", rounds))
	for i, sc := range scenarios {
		o.notes = append(o.notes, fmt.Sprintf("  fingerprint %-8s %s (verdict %s)", sc.name, first[i], verdictWord(last[i].verdict)))
	}
	if par {
		same := "yes"
		if o.wrong > 0 {
			same = "NO"
		}
		o.notes = append(o.notes, "  parallel fingerprints equal the serial kernel's on the same configs: "+same)
	}
	o.samples = len(perReqNS)
	o.e2e["rps"] = float64(requests) / wall.Seconds()
	o.e2e["p50_us"] = percentileUS(perReqNS, 0.5)
	o.e2e["p999_us"] = percentileUS(perReqNS, 0.999)
	o.e2e["fail_ratio"] = float64(o.failed) / float64(o.attempted)
	o.e2e["peak_heap_mb"] = peak
	o.e2e["wall_s"] = wall.Seconds() / float64(rounds)
	for i, sc := range scenarios {
		o.e2e["virt_p99_us."+sc.name] = float64(last[i].virtP99) / float64(time.Microsecond)
	}
	if profile {
		l := profileShares(samples)
		roundEvents := float64(events) / float64(rounds)
		l["sim.events"] = roundEvents
		l["sim.events_per_s"] = float64(events) / wall.Seconds()
		if par {
			l["sim.par.cpu_util"] = (rt1.cpu - rt0.cpu).Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
			l["sim.par.events_per_s"] = float64(events) / wall.Seconds()
		}
		addRuntimeLayers(l, rt0, rt1, requests)
		o.layers = l
	}
	return o, nil
}

func verdictWord(ok bool) string {
	if ok {
		return "met"
	}
	return "NOT MET"
}
