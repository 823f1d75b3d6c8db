// Package benchio drives RPC targets closed- and open-loop and reports
// throughput, latency percentiles, and allocation rates — the measured
// counterpart to the paper's claim that the data plane, not the
// harness, should set the throughput ceiling (§6.2). The cmd/lnic-bench
// rpcbench experiment uses it to write BENCH_rpc.json, giving the repo
// a tracked perf trajectory across PRs.
package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lambdanic/internal/metrics"
)

// Call issues one request against the benchmarked target and reports
// whether it failed. Implementations must be safe for concurrent use.
type Call func() error

// Result is one benchmark configuration's measurement.
type Result struct {
	// Name identifies the scenario (e.g. "roundtrip/64B").
	Name string `json:"name"`
	// Transport names the packet network ("memnet", "udp").
	Transport string `json:"transport"`
	// Mode is "closed" (fixed concurrency) or "open" (fixed rate).
	Mode string `json:"mode"`
	// Concurrency is the closed-loop caller count (0 for open loop).
	Concurrency int `json:"concurrency,omitempty"`
	// OfferedRPS is the open-loop arrival rate (0 for closed loop).
	OfferedRPS float64 `json:"offered_rps,omitempty"`

	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// Shed counts open-loop arrivals dropped because the in-flight cap
	// was reached (the system could not absorb the offered rate).
	Shed int `json:"shed,omitempty"`

	ReqPerSec float64 `json:"req_per_sec"`
	P50Ns     int64   `json:"p50_ns"`
	P90Ns     int64   `json:"p90_ns"`
	P99Ns     int64   `json:"p99_ns"`
	// P999Ns is the 99.9th percentile; zero when the sample count is too
	// small for the tail to be meaningful (populated by fill for any
	// non-empty run, but older reports omit it).
	P999Ns int64 `json:"p999_ns,omitempty"`

	// AllocsPerOp and BytesPerOp are process-wide deltas divided by
	// completed requests: they include the full data plane (readers,
	// workers, pools), which is exactly the steady state being gated.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Report is the serialized benchmark output (BENCH_rpc.json).
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// ClosedLoop runs concurrency callers back-to-back for roughly the
// given duration and measures service throughput and latency.
func ClosedLoop(name, transport string, concurrency int, d time.Duration, call Call) Result {
	if concurrency < 1 {
		concurrency = 1
	}
	lat := make([][]time.Duration, concurrency)
	errs := make([]int, concurrency)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			samples := lat[i][:0]
			for time.Now().Before(deadline) {
				t0 := time.Now()
				err := call()
				samples = append(samples, time.Since(t0))
				if err != nil {
					errs[i]++
				}
			}
			lat[i] = samples
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	all := merge(lat)
	res := Result{
		Name:        name,
		Transport:   transport,
		Mode:        "closed",
		Concurrency: concurrency,
		Requests:    len(all),
	}
	for _, e := range errs {
		res.Errors += e
	}
	fill(&res, all, elapsed)
	if n := len(all); n > 0 {
		res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(n)
		res.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	return res
}

// OpenLoop offers requests at a fixed rate for roughly the given
// duration, with at most maxInflight outstanding; arrivals beyond the
// cap are shed and counted. Latencies include queueing at the target.
func OpenLoop(name, transport string, rps float64, d time.Duration, maxInflight int, call Call) Result {
	if rps <= 0 {
		rps = 1
	}
	if maxInflight < 1 {
		maxInflight = 64
	}
	interval := time.Duration(float64(time.Second) / rps)
	n := int(float64(d) / float64(interval))
	if n < 1 {
		n = 1
	}

	var (
		mu      sync.Mutex
		lat     = make([]time.Duration, 0, n)
		errors_ int
		shed    int
	)
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	var inFlightErrs atomic.Int64

	start := time.Now()
	next := start
	for i := 0; i < n; i++ {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		next = next.Add(interval)
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				err := call()
				dur := time.Since(t0)
				<-sem
				if err != nil {
					inFlightErrs.Add(1)
				}
				mu.Lock()
				lat = append(lat, dur)
				mu.Unlock()
			}()
		default:
			shed++
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	errors_ = int(inFlightErrs.Load())

	res := Result{
		Name:       name,
		Transport:  transport,
		Mode:       "open",
		OfferedRPS: rps,
		Requests:   len(lat),
		Errors:     errors_,
		Shed:       shed,
	}
	fill(&res, lat, elapsed)
	return res
}

func merge(parts [][]time.Duration) []time.Duration {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	all := make([]time.Duration, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// fill sets the rate and the latency percentiles, read from a
// metrics.Sample: the one quantile definition (linear interpolation
// between order statistics) every report in the repository uses.
func fill(res *Result, lat []time.Duration, elapsed time.Duration) {
	if len(lat) == 0 || elapsed <= 0 {
		return
	}
	res.ReqPerSec = float64(len(lat)) / elapsed.Seconds()
	var s metrics.Sample
	for _, d := range lat {
		s.AddDuration(d)
	}
	ns := func(q float64) int64 { return int64(s.Quantile(q) * float64(time.Second)) }
	res.P50Ns, res.P90Ns, res.P99Ns, res.P999Ns = ns(0.50), ns(0.90), ns(0.99), ns(0.999)
}

// NewReport wraps results with the run's environment.
func NewReport(results []Result) Report {
	return Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    results,
	}
}

// WriteJSON writes the report to path, pretty-printed so diffs across
// PRs stay readable.
func WriteJSON(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("benchio: write %s: %w", path, err)
	}
	return nil
}

// ReadJSON loads a report previously written by WriteJSON.
func ReadJSON(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("benchio: read %s: %w", path, err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("benchio: parse %s: %w", path, err)
	}
	return r, nil
}

// Guard compares a fresh report against a committed baseline and
// returns an error naming every guarded row whose throughput regressed
// by more than tolerance (a fraction: 0.20 allows a 20% drop).
//
// Raw req/sec is not comparable across machines, so each row is first
// normalized to the same run's reference row — ratio = ReqPerSec /
// reference.ReqPerSec — and the guard requires each current ratio to be
// at least (1 - tolerance) times the baseline's. Machine speed cancels;
// what remains is the relative cost of the scenario against the
// reference implementation, which is exactly what a kernel regression
// changes.
//
// Only rows whose Name begins with one of the prefixes are guarded:
// multi-core scaling rows, for example, are meaningless to compare
// between machines with different core counts. Rows present on only one
// side are skipped — adding a scenario must not fail old baselines.
func Guard(baseline, current Report, reference string, tolerance float64, prefixes ...string) error {
	rps := func(r Report) map[string]float64 {
		m := make(map[string]float64, len(r.Results))
		for _, res := range r.Results {
			m[res.Name] = res.ReqPerSec
		}
		return m
	}
	base, cur := rps(baseline), rps(current)
	refB, refC := base[reference], cur[reference]
	if refB <= 0 || refC <= 0 {
		return fmt.Errorf("benchio: guard reference %q missing from %s",
			reference, map[bool]string{true: "baseline", false: "current report"}[refB <= 0])
	}
	guarded := func(name string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	var violations []string
	for _, res := range current.Results {
		name := res.Name
		if name == reference || !guarded(name) {
			continue
		}
		b, ok := base[name]
		if !ok || b <= 0 || cur[name] <= 0 {
			continue
		}
		ratioB, ratioC := b/refB, cur[name]/refC
		if ratioC < ratioB*(1-tolerance) {
			violations = append(violations,
				fmt.Sprintf("%s: %.3fx reference, baseline %.3fx (-%0.1f%%)",
					name, ratioC, ratioB, 100*(1-ratioC/ratioB)))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("benchio: throughput regressed beyond %.0f%% tolerance:\n  %s",
			tolerance*100, strings.Join(violations, "\n  "))
	}
	return nil
}

// GuardExact compares a virtual-clock report with a committed baseline
// and returns an error naming every guarded row that differs in
// Requests, Errors, Shed, ReqPerSec or any latency percentile, or that
// is present on only one side. Only rows whose Name begins with one of
// the prefixes are guarded.
//
// Virtual-clock experiments (nicsim under the discrete-event simulator)
// are deterministic and machine-independent, so any difference is a
// behaviour change: a deliberate one is recorded by rewriting the
// baseline. Do not use it on wall-clock benchmarks.
func GuardExact(baseline, current Report, prefixes ...string) error {
	type measured struct {
		Requests, Errors, Shed int
		ReqPerSec              float64
		P50, P90, P99, P999    int64
	}
	rows := func(r Report) map[string]measured {
		m := make(map[string]measured, len(r.Results))
		for _, res := range r.Results {
			for _, p := range prefixes {
				if strings.HasPrefix(res.Name, p) {
					m[res.Name] = measured{res.Requests, res.Errors, res.Shed, res.ReqPerSec,
						res.P50Ns, res.P90Ns, res.P99Ns, res.P999Ns}
					break
				}
			}
		}
		return m
	}
	base, cur := rows(baseline), rows(current)
	var violations []string
	for _, res := range current.Results {
		c, ok := cur[res.Name]
		if !ok {
			continue
		}
		if b, ok := base[res.Name]; !ok {
			violations = append(violations, res.Name+": not in the baseline")
		} else if b != c {
			violations = append(violations, fmt.Sprintf("%s: %+v, baseline %+v", res.Name, c, b))
		}
	}
	for _, res := range baseline.Results {
		if _, ok := base[res.Name]; ok {
			if _, ok := cur[res.Name]; !ok {
				violations = append(violations, res.Name+": missing from the report")
			}
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("benchio: report differs from the baseline:\n  %s",
			strings.Join(violations, "\n  "))
	}
	return nil
}
