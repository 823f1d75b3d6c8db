package experiments

import (
	"strings"
	"testing"

	"lambdanic/internal/workloads"
)

// The experiment tests run the Quick configuration and assert the
// paper's qualitative results: orderings, factor bands, and exact
// static quantities. Absolute paper-scale numbers are recorded by the
// full-size runs in EXPERIMENTS.md.

func fig6ByKey(series []LatencySeries) map[string]LatencySeries {
	out := make(map[string]LatencySeries, len(series))
	for _, s := range series {
		out[s.Workload+"/"+string(s.Backend)] = s
	}
	return out
}

func TestFigure6Shape(t *testing.T) {
	series, err := Figure6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 9 {
		t.Fatalf("series = %d, want 9 (3 workloads x 3 backends)", len(series))
	}
	by := fig6ByKey(series)
	for _, s := range series {
		if s.Errors != 0 {
			t.Errorf("%s/%s: %d errors", s.Workload, s.Backend, s.Errors)
		}
		if s.Summary.N == 0 || s.Summary.Mean <= 0 {
			t.Errorf("%s/%s: empty sample", s.Workload, s.Backend)
		}
	}
	for _, w := range []string{"web-server", "key-value-client", "image-transformer"} {
		nic := by[w+"/lambda-nic"].Summary.Mean
		bare := by[w+"/bare-metal"].Summary.Mean
		cont := by[w+"/container"].Summary.Mean
		if !(nic < bare && bare < cont) {
			t.Errorf("%s: ordering violated nic=%v bare=%v cont=%v", w, nic, bare, cont)
		}
	}
	// Web-server factors land in the paper's bands (Fig. 6: ~30x over
	// bare metal, ~880x over containers).
	web := "web-server"
	if r := by[web+"/bare-metal"].Summary.Mean / by[web+"/lambda-nic"].Summary.Mean; r < 20 || r > 45 {
		t.Errorf("web bare/nic = %.0fx, want ~30x", r)
	}
	if r := by[web+"/container"].Summary.Mean / by[web+"/lambda-nic"].Summary.Mean; r < 600 || r > 1200 {
		t.Errorf("web container/nic = %.0fx, want ~880x", r)
	}
	// Image transformer: modest 3-5x advantage (data-bound).
	img := "image-transformer"
	if r := by[img+"/bare-metal"].Summary.Mean / by[img+"/lambda-nic"].Summary.Mean; r < 2 || r > 8 {
		t.Errorf("image bare/nic = %.1fx, want 3-5x band", r)
	}
	// Tail: λ-NIC p99 stays near its mean (run to completion); the CPU
	// backends' jittered tails do not.
	nicWeb := by[web+"/lambda-nic"].Summary
	bareWeb := by[web+"/bare-metal"].Summary
	if nicWeb.P99 > 2*nicWeb.Mean {
		t.Errorf("λ-NIC tail not tight: p99=%v mean=%v", nicWeb.P99, nicWeb.Mean)
	}
	if bareWeb.P99 <= bareWeb.P50 {
		t.Errorf("bare-metal tail missing: p99=%v p50=%v", bareWeb.P99, bareWeb.P50)
	}
	checkGolden(t, "figure6", RenderFigure6(series))
}

func TestFigure7Shape(t *testing.T) {
	points, err := Figure7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 18 {
		t.Fatalf("points = %d, want 18 (3 workloads x 3 backends x 2 thread counts)", len(points))
	}
	by := make(map[string]ThroughputPoint, len(points))
	for _, p := range points {
		if p.PerSecond <= 0 {
			t.Errorf("%s/%s/%d: zero throughput", p.Workload, p.Backend, p.Threads)
		}
		by[p.Workload+"/"+string(p.Backend)+"/"+threadKey(p.Threads)] = p
	}
	// λ-NIC leads every workload at 56 threads.
	for _, w := range []string{"web-server", "key-value-client", "image-transformer"} {
		nic := by[w+"/lambda-nic/56"].PerSecond
		bare := by[w+"/bare-metal/56"].PerSecond
		cont := by[w+"/container/56"].PerSecond
		if !(nic > bare && nic > cont) {
			t.Errorf("%s @56: λ-NIC not fastest (nic=%.0f bare=%.0f cont=%.0f)", w, nic, bare, cont)
		}
	}
	// Web at 56 threads: ~27x over bare metal (paper's lower bound).
	if r := by["web-server/lambda-nic/56"].PerSecond / by["web-server/bare-metal/56"].PerSecond; r < 15 || r > 50 {
		t.Errorf("web 56-thread nic/bare = %.0fx, want ~27-31x", r)
	}
	// KV at 56 threads: the container collapses (conntrack penalty),
	// approaching the paper's 736x.
	if r := by["key-value-client/lambda-nic/56"].PerSecond / by["key-value-client/container/56"].PerSecond; r < 400 {
		t.Errorf("kv 56-thread nic/container = %.0fx, want ≫ 400x", r)
	}
	// More threads must not reduce λ-NIC throughput.
	if by["web-server/lambda-nic/56"].PerSecond < by["web-server/lambda-nic/1"].PerSecond {
		t.Error("λ-NIC throughput dropped with concurrency")
	}
	checkGolden(t, "figure7", RenderFigure7(points))
}

func threadKey(n int) string {
	if n == 1 {
		return "1"
	}
	return "56"
}

func TestFigure8Table2Shape(t *testing.T) {
	results, err := Figure8Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3 series", len(results))
	}
	by := make(map[BackendID]ContentionResult, 3)
	for _, r := range results {
		by[r.Backend] = r
	}
	nic, bare, one := by[BackendLambdaNIC], by[BackendBareMetal], by[BackendBareMetal1Core]
	// Table 2 bands: λ-NIC ~58k, bare ~950, single core ~520.
	if nic.PerSecond < 45_000 || nic.PerSecond > 65_000 {
		t.Errorf("λ-NIC contention throughput = %.0f, want ~58000", nic.PerSecond)
	}
	if bare.PerSecond < 700 || bare.PerSecond > 1200 {
		t.Errorf("bare contention throughput = %.0f, want ~950", bare.PerSecond)
	}
	if one.PerSecond < 350 || one.PerSecond > 650 {
		t.Errorf("single-core throughput = %.0f, want ~520", one.PerSecond)
	}
	// λ-NIC completes requests 55-100x+ faster (paper text, Table 2).
	if r := bare.Summary.Mean / nic.Summary.Mean; r < 40 {
		t.Errorf("contention latency ratio = %.0fx, want ≫ 40x", r)
	}
	if !(one.Summary.Mean > bare.Summary.Mean) {
		t.Error("single core not slower than 56 threads")
	}
	// λ-NIC shows "no significant change" vs isolation: its contention
	// mean stays in the sub-millisecond gateway-dominated regime.
	if nic.Summary.Mean > 2e-3 {
		t.Errorf("λ-NIC contention mean = %v s, want < 2ms", nic.Summary.Mean)
	}
	checkGolden(t, "figure8", RenderFigure8Table2(results))
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	by := make(map[BackendID]Table3Row, 3)
	for _, r := range rows {
		by[r.Backend] = r
	}
	nic, bare, cont := by[BackendLambdaNIC], by[BackendBareMetal], by[BackendContainer]
	if nic.Usage.HostCPUPercent >= 1 {
		t.Errorf("λ-NIC host CPU = %.1f%%, want ~0.1%%", nic.Usage.HostCPUPercent)
	}
	if nic.Usage.HostMemoryMiB != 0 {
		t.Errorf("λ-NIC host memory = %.1f, want 0", nic.Usage.HostMemoryMiB)
	}
	if nic.Usage.NICMemoryMiB <= 0 {
		t.Error("λ-NIC NIC memory missing")
	}
	if bare.Usage.NICMemoryMiB != 0 || cont.Usage.NICMemoryMiB != 0 {
		t.Error("CPU backends must not use NIC memory")
	}
	if !(cont.Usage.HostMemoryMiB > bare.Usage.HostMemoryMiB) {
		t.Error("container memory not above bare metal")
	}
	if cont.Usage.HostMemoryMiB-bare.Usage.HostMemoryMiB < 100 {
		t.Errorf("container memory premium = %.1f MiB, want ~157 MiB",
			cont.Usage.HostMemoryMiB-bare.Usage.HostMemoryMiB)
	}
	if !(bare.Usage.HostCPUPercent > nic.Usage.HostCPUPercent) {
		t.Error("bare CPU not above λ-NIC")
	}
	if !(cont.Usage.HostCPUPercent > bare.Usage.HostCPUPercent) {
		t.Error("container CPU not above bare metal")
	}
	checkGolden(t, "table3", RenderTable3(rows))
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	by := make(map[BackendID]Table4Row, 3)
	for _, r := range rows {
		by[r.Backend] = r
	}
	nic, bare, cont := by[BackendLambdaNIC], by[BackendBareMetal], by[BackendContainer]
	// Paper Table 4: 11.0/17.0/153.0 MiB and 19.8/5.0/31.7 s.
	checks := []struct {
		name    string
		got     float64
		want    float64
		percent float64
	}{
		{"λ-NIC size", nic.SizeMiB, 11.0, 5},
		{"bare size", bare.SizeMiB, 17.0, 5},
		{"container size", cont.SizeMiB, 153.0, 5},
		{"λ-NIC startup", nic.Startup.Seconds(), 19.8, 5},
		{"bare startup", bare.Startup.Seconds(), 5.0, 5},
		{"container startup", cont.Startup.Seconds(), 31.7, 5},
	}
	for _, c := range checks {
		lo, hi := c.want*(1-c.percent/100), c.want*(1+c.percent/100)
		if c.got < lo || c.got > hi {
			t.Errorf("%s = %.1f, want %.1f ± %.0f%%", c.name, c.got, c.want, c.percent)
		}
	}
	// λ-NIC's image is ~13x smaller than the container's (paper §6.4).
	if r := cont.SizeMiB / nic.SizeMiB; r < 12 || r > 15 {
		t.Errorf("container/λ-NIC size ratio = %.1fx, want ~13x", r)
	}
}

func TestFigure9Exact(t *testing.T) {
	results, err := Figure9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	if results[0].Instructions != workloads.NaiveProgramTarget {
		t.Errorf("naive = %d, want %d", results[0].Instructions, workloads.NaiveProgramTarget)
	}
	// Paper: -5.11%, -8.65%, -9.56% cumulative.
	want := []float64{0, 5.11, 8.65, 9.56}
	for i, r := range results {
		got := 100 * float64(workloads.NaiveProgramTarget-r.Instructions) / float64(workloads.NaiveProgramTarget)
		if d := got - want[i]; d < -0.25 || d > 0.25 {
			t.Errorf("pass %q: -%.2f%%, want -%.2f%%", r.Pass, got, want[i])
		}
	}
}

func TestTable1Static(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Type != "ASIC-based" || rows[1].Performance != "200+ cores, low latency" {
		t.Errorf("ASIC row wrong: %+v", rows[1])
	}
}

func TestRenderers(t *testing.T) {
	cfg := Quick()
	cfg.Fig6Samples = 10
	cfg.Fig7Requests = 40
	cfg.Fig7ImageRequests = 4
	cfg.Fig8Requests = 60
	cfg.Table3Requests = 8

	f6, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderFigure6(f6); !strings.Contains(out, "web-server") || !strings.Contains(out, "lambda-nic") {
		t.Errorf("RenderFigure6 incomplete:\n%s", out)
	}
	if out := RenderECDF("test", f6[0].ECDF); !strings.Contains(out, "ECDF") {
		t.Error("RenderECDF wrong")
	}
	f7, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderFigure7(f7); !strings.Contains(out, "req/s") {
		t.Error("RenderFigure7 wrong")
	}
	f8, err := Figure8Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderFigure8Table2(f8); !strings.Contains(out, "throughput") {
		t.Error("RenderFigure8Table2 wrong")
	}
	t3, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable3(t3); !strings.Contains(out, "Host CPU") {
		t.Error("RenderTable3 wrong")
	}
	t4, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable4(t4); !strings.Contains(out, "Startup") {
		t.Error("RenderTable4 wrong")
	}
	f9, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderFigure9(f9); !strings.Contains(out, "unoptimized") {
		t.Error("RenderFigure9 wrong")
	}
	if out := RenderTable1(Table1()); !strings.Contains(out, "ASIC") {
		t.Error("RenderTable1 wrong")
	}
}

func TestDeterministicExperiments(t *testing.T) {
	cfg := Quick()
	cfg.Fig8Requests = 100
	run := func() float64 {
		r, err := Figure8Table2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r[0].PerSecond
	}
	if a, b := run(), run(); a != b {
		t.Errorf("experiments not deterministic: %v vs %v", a, b)
	}
}
