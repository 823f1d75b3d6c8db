// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks every output, and prints the
// end-to-end metrics by name and unit. With --trace 1 it runs the
// workload twice, untraced then traced, prints the tracing overhead and
// the per-layer metrics of the traced phase.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// carrying the bounded end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Workloads:
//
//	serve-small   gateway → workers → memcached over loopback UDP, one-packet requests
//	serve-bulk    the image transformer, 16–64 KiB requests over loopback UDP
//	sim-rack      full-size skew, tenants and boundary on the serial kernel
//	sim-rack-par  the same scenarios at -short size through the *Parallel entry points
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
//
// README.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// e2eMetrics are printed for every workload, "n/a" where a metric has
// no meaning (README.md lists which). The bounded ones form the JSON
// result: each is defined, non-zero and measured on every workload.
var e2eMetrics = []struct {
	name, unit string
	bounded    bool
}{
	{"setup_s", "s", true},
	{"rps", "req/s", true},
	{"goodput_mib_s", "MiB/s", false},
	{"p50_us", "us", true},
	{"p999_us", "us", false},
	{"fail_ratio", "ratio", false},
	{"peak_heap_mb", "MB", true},
	{"wall_s", "s", false},
	{"virt_p99_us.skew", "us", false},
	{"virt_p99_us.tenants", "us", false},
	{"virt_p99_us.boundary", "us", false},
}

// outcome is what one measured phase of a workload produced.
type outcome struct {
	attempted, failed int64
	// wrong counts outputs that failed a correctness check; any makes
	// the run incorrect. Wrong outputs are also counted in failed.
	wrong int64
	// e2e holds the end-to-end metrics that apply to this workload.
	e2e map[string]float64
	// samples is the latency sample count behind p50_us/p999_us.
	samples int
	// layers holds the per-layer metrics (traced phase only).
	layers map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-small, serve-bulk, sim-rack or sim-rack-par")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 adds a traced phase and prints per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for trace files")
	probeN := fs.Int("probe", 0, "serve-bulk: after the measured phase, make this many calls of each size that fails today (counted in attempted and failed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	measure := time.Duration(*seconds) * time.Second
	traced := *trace == 1

	var phases []*outcome
	var err error
	switch *workload {
	case "serve-small", "serve-bulk":
		phases, err = runServe(*workload, *seed, measure, traced, *probeN, *outDir)
	case "sim-rack", "sim-rack-par":
		if *probeN > 0 {
			return fmt.Errorf("--probe applies to serve-bulk only")
		}
		phases, err = runSim(*workload == "sim-rack-par", *seed, measure, traced, *outDir)
	default:
		return fmt.Errorf("unknown --workload %q (want serve-small, serve-bulk, sim-rack or sim-rack-par)", *workload)
	}
	if err != nil {
		return err
	}

	fmt.Printf("config: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%d go=%s os=%s/%s\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	untraced := phases[0]
	for _, n := range untraced.notes {
		fmt.Println(n)
	}
	printE2E("untraced", untraced)

	res := result{Correct: true}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		if ph.wrong > 0 {
			res.Correct = false
		}
	}
	res.Metrics = map[string]metricValue{}
	if !traced {
		for _, m := range e2eMetrics {
			if !m.bounded {
				continue
			}
			v, ok := untraced.e2e[m.name]
			if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s not measured (got %v)", m.name, v)
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	} else {
		tr := phases[1]
		for _, n := range tr.notes {
			fmt.Println("traced", n)
		}
		printE2E("traced", tr)
		printOverhead(untraced, tr)
		printLayers(*workload, tr)
		for _, m := range layerMetrics {
			v := tr.layers[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printE2E prints the full end-to-end table of one phase.
func printE2E(phase string, o *outcome) {
	fmt.Printf("%s: attempted=%d failed=%d wrong=%d latency-samples=%d\n",
		phase, o.attempted, o.failed, o.wrong, o.samples)
	for _, m := range e2eMetrics {
		v, ok := o.e2e[m.name]
		if !ok {
			fmt.Printf("  e2e %-22s %14s %s\n", m.name, "n/a", m.unit)
			continue
		}
		fmt.Printf("  e2e %-22s %14.4f %s\n", m.name, v, m.unit)
	}
}

// printOverhead prints traced minus untraced for each end-to-end metric
// both phases measured.
func printOverhead(untraced, traced *outcome) {
	fmt.Println("tracing overhead (traced - untraced):")
	for _, m := range e2eMetrics {
		u, ok1 := untraced.e2e[m.name]
		t, ok2 := traced.e2e[m.name]
		if !ok1 || !ok2 || strings.HasPrefix(m.name, "virt_") {
			continue
		}
		rel := ""
		if u != 0 {
			rel = fmt.Sprintf(" (%+.1f%%)", 100*(t-u)/u)
		}
		fmt.Printf("  overhead %-20s %+14.4f %s%s\n", m.name, t-u, m.unit, rel)
	}
}

// printLayers prints each per-layer metric with the end-to-end metric
// it should move.
func printLayers(workload string, o *outcome) {
	fmt.Printf("per-layer metrics (%s, traced phase):\n", workload)
	for _, m := range layerMetrics {
		fmt.Printf("  layer %-28s %14.4f %-6s -> %s\n", m.name, o.layers[m.name], m.unit, m.moves)
	}
}
