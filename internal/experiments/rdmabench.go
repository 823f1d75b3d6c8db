package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/benchio"
	"lambdanic/internal/kvstore"
	"lambdanic/internal/metrics"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/rdma"
	"lambdanic/internal/sim"
	"lambdanic/internal/trace"
	"lambdanic/internal/workloads"
)

// The rdmabench experiment measures the one-sided RDMA fast path on
// the simulated testbed, in virtual time — every number is a property
// of the timing model, deterministic and machine-independent, which is
// why the committed BENCH_rdma_baseline.json can be guarded tightly.
//
// Three row families, reproducing the SMART-style scalability curves:
//
//   - kvget/lambda/c{C}: the baseline — KV GETs served by invoking the
//     kv_get_client lambda on an NPU plus the modeled memcached store
//     access (StoreRTT + serialized StoreOccupancy), C closed-loop
//     clients.
//   - kvget/bypass/w{W}/c{C}: the same GETs served by one-sided RDMA
//     reads of the EMEM-resident table (no NPU dispatch), through a QP
//     whose outstanding-request window is W. Throughput rises with W
//     until the shared link saturates (the knee), then flattens.
//   - large/doorbell/{size} vs large/perfrag/{size}: a large object
//     moved as MTU-sized writes flushed under ONE doorbell (the whole
//     batch pipelines on the link) versus one doorbell + completion
//     wait per fragment (the stop-and-wait fragmentation path). The
//     gap is the per-doorbell charge plus the lost pipelining.
//
// The whole suite runs under both simulation kernels (ladder and binary
// heap) and RdmaBench fails if the reports differ in any bit that
// matters — same determinism contract as the other experiments.

// RdmaBenchConfig sizes the one-sided RDMA benchmark.
type RdmaBenchConfig struct {
	// Requests is the measured GET count per kvget scenario.
	Requests int
	// Warmup GETs run before measurement opens.
	Warmup int
	// Clients are the closed-loop client counts.
	Clients []int
	// Windows are the QP outstanding-request windows for the bypass
	// scalability curve (0 = unlimited).
	Windows []int
	// LargeOps is the number of MTU-sized writes per large transfer.
	LargeOps int
	// Transfers is how many large transfers each large row measures.
	Transfers int
	// DoorbellCost is the per-doorbell submission charge applied in the
	// large-transfer engines (the quantity batching amortizes).
	DoorbellCost time.Duration
	// StoreRTT and StoreOccupancy model the memcached machine the
	// kv_get_client lambda queries: the round-trip wire time to it and
	// its serialized per-request service time. The simulated backend
	// measures the client lambda alone (Figures 6–7), but a *served*
	// GET on the lambda path additionally pays this store access — the
	// bypass rows pay theirs as the one-sided read itself, so only the
	// lambda baseline is wrapped with this stage.
	StoreRTT       time.Duration
	StoreOccupancy time.Duration
}

// DefaultRdmaBench returns the full-size configuration.
func DefaultRdmaBench() RdmaBenchConfig {
	return RdmaBenchConfig{
		Requests:       2000,
		Warmup:         200,
		Clients:        []int{1, 4, 16},
		Windows:        []int{1, 2, 4, 8, 16, 32},
		LargeOps:       64,
		Transfers:      32,
		DoorbellCost:   time.Microsecond,
		StoreRTT:       3 * time.Microsecond,
		StoreOccupancy: 1500 * time.Nanosecond,
	}
}

// QuickRdmaBench returns a reduced configuration for smoke runs and CI.
func QuickRdmaBench() RdmaBenchConfig {
	return RdmaBenchConfig{
		Requests:       400,
		Warmup:         40,
		Clients:        []int{1, 4, 16},
		Windows:        []int{1, 2, 4, 8, 16},
		LargeOps:       32,
		Transfers:      8,
		DoorbellCost:   time.Microsecond,
		StoreRTT:       3 * time.Microsecond,
		StoreOccupancy: 1500 * time.Nanosecond,
	}
}

// rdmaBenchTable builds the EMEM table mirror preloaded with the KV
// keyspace and returns the key indices that fit its fixed-slot
// geometry — the bypass rows request only present keys, so every GET
// is a one-sided hit and the rows measure the fast path, not the
// fallback mix.
func rdmaBenchTable() (*kvstore.Table, []int) {
	table := kvstore.NewTable(2048)
	var present []int
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user:%04d", i)
		if table.Set(key, []byte(fmt.Sprintf("value-%d", i))) {
			present = append(present, i)
		}
	}
	return table, present
}

// runKVGetRow drives one closed-loop GET scenario. window < 0 disables
// the bypass entirely (the lambda baseline).
func runKVGetRow(cfg Config, rb RdmaBenchConfig, name string, clients, window int) (benchio.Result, error) {
	s := sim.NewWithKernel(cfg.Seed, cfg.Kernel)
	b, err := backend.NewLambdaNIC(s, cfg.Testbed, nicsim.DispatchUniform)
	if err != nil {
		return benchio.Result{}, err
	}
	get := workloads.KVGetClient()
	if err := b.Deploy([]*workloads.Workload{get}); err != nil {
		return benchio.Result{}, err
	}
	table, present := rdmaBenchTable()
	var target trace.Invoker = b
	if window >= 0 {
		if err := b.EnableKVBypass(get.ID, table, window); err != nil {
			return benchio.Result{}, err
		}
	} else {
		// Lambda baseline: the served GET pays the memcached machine
		// round trip and its serialized service time on top of the
		// client lambda (the bypass rows pay theirs as the RDMA read).
		target = trace.NewGateway(s, b, rb.StoreRTT, rb.StoreOccupancy)
	}
	res, err := (trace.ClosedLoop{
		Concurrency: clients,
		Requests:    rb.Requests,
		Warmup:      rb.Warmup,
		Gen: trace.Fixed(get.ID, func(i int) []byte {
			return get.MakeRequest(present[i%len(present)])
		}),
	}).Run(s, target)
	if err != nil {
		return benchio.Result{}, err
	}
	if res.Errors > 0 {
		return benchio.Result{}, fmt.Errorf("rdmabench: %s: %d errors", name, res.Errors)
	}
	if window >= 0 {
		hits, fallbacks := b.BypassStats()
		if fallbacks > 0 || hits == 0 {
			return benchio.Result{}, fmt.Errorf("rdmabench: %s: bypass hits=%d fallbacks=%d, want all hits",
				name, hits, fallbacks)
		}
	}
	return traceRow(name, clients, res), nil
}

// traceRow converts a virtual-clock load result to the benchmark row
// schema. ReqPerSec is completions per second of simulated time.
func traceRow(name string, clients int, res *trace.Result) benchio.Result {
	return benchio.Result{
		Name:        name,
		Transport:   "nicsim",
		Mode:        "closed",
		Concurrency: clients,
		Requests:    int(res.Throughput.Completed),
		Errors:      res.Errors,
		ReqPerSec:   res.Throughput.PerSecond(),
		P50Ns:       int64(res.Latency.Quantile(0.50) * 1e9),
		P90Ns:       int64(res.Latency.Quantile(0.90) * 1e9),
		P99Ns:       int64(res.Latency.Quantile(0.99) * 1e9),
	}
}

// runLargeRow measures rb.Transfers large-object transfers, each
// rb.LargeOps MTU-sized writes. Batched mode posts the whole transfer
// and rings once; per-fragment mode rings and waits per write — the
// stop-and-wait discipline of the fragmentation path it stands in for.
func runLargeRow(cfg Config, rb RdmaBenchConfig, name string, batched bool) (benchio.Result, error) {
	s := sim.NewWithKernel(cfg.Seed, cfg.Kernel)
	eng := rdma.New(s, rdma.Config{
		Link:         cfg.Testbed.Link,
		PerPacketDMA: 100 * time.Nanosecond,
		MTU:          workloads.MTU,
		DoorbellCost: sim.Time(rb.DoorbellCost),
	})
	size := rb.LargeOps * workloads.MTU
	region, err := eng.Register("large-object", size)
	if err != nil {
		return benchio.Result{}, err
	}
	qp := eng.NewQP(0)
	chunk := make([]byte, workloads.MTU)
	var lat metrics.Sample
	var firstErr error
	start := s.Now()
	for t := 0; t < rb.Transfers; t++ {
		t0 := s.Now()
		onDone := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if batched {
			for op := 0; op < rb.LargeOps; op++ {
				qp.PostWrite(region.Key(), op*workloads.MTU, chunk, onDone)
			}
			qp.RingDoorbell()
			if err := s.RunUntilIdle(); err != nil {
				return benchio.Result{}, err
			}
		} else {
			for op := 0; op < rb.LargeOps; op++ {
				qp.PostWrite(region.Key(), op*workloads.MTU, chunk, onDone)
				qp.RingDoorbell()
				if err := s.RunUntilIdle(); err != nil {
					return benchio.Result{}, err
				}
			}
		}
		if firstErr != nil {
			return benchio.Result{}, fmt.Errorf("rdmabench: %s: %w", name, firstErr)
		}
		lat.AddDuration(s.Now() - t0)
	}
	elapsed := (s.Now() - start).Seconds()
	row := benchio.Result{
		Name:        name,
		Transport:   "nicsim",
		Mode:        "closed",
		Concurrency: 1,
		Requests:    rb.Transfers,
		P50Ns:       int64(lat.Quantile(0.50) * 1e9),
		P90Ns:       int64(lat.Quantile(0.90) * 1e9),
		P99Ns:       int64(lat.Quantile(0.99) * 1e9),
	}
	if elapsed > 0 {
		row.ReqPerSec = float64(rb.Transfers) / elapsed
	}
	return row, nil
}

// runRdmaSuite produces the full report under one kernel.
func runRdmaSuite(cfg Config, rb RdmaBenchConfig, kind sim.KernelKind) (benchio.Report, error) {
	cfg.Kernel = kind
	var results []benchio.Result
	for _, c := range rb.Clients {
		row, err := runKVGetRow(cfg, rb, fmt.Sprintf("kvget/lambda/c%d", c), c, -1)
		if err != nil {
			return benchio.Report{}, err
		}
		results = append(results, row)
	}
	for _, w := range rb.Windows {
		for _, c := range rb.Clients {
			row, err := runKVGetRow(cfg, rb, fmt.Sprintf("kvget/bypass/w%d/c%d", w, c), c, w)
			if err != nil {
				return benchio.Report{}, err
			}
			results = append(results, row)
		}
	}
	sizeKiB := rb.LargeOps * workloads.MTU / 1024
	for _, mode := range []struct {
		name    string
		batched bool
	}{
		{fmt.Sprintf("large/doorbell/%dKiB", sizeKiB), true},
		{fmt.Sprintf("large/perfrag/%dKiB", sizeKiB), false},
	} {
		row, err := runLargeRow(cfg, rb, mode.name, mode.batched)
		if err != nil {
			return benchio.Report{}, err
		}
		results = append(results, row)
	}
	return benchio.NewReport(results), nil
}

// RdmaBench runs the suite under the ladder and heap kernels, fails if
// the two reports differ (the determinism contract every experiment in
// this repo carries), and returns the report written to
// BENCH_rdma.json.
func RdmaBench(cfg Config, rb RdmaBenchConfig) (benchio.Report, error) {
	ladder, err := runRdmaSuite(cfg, rb, sim.KernelLadder)
	if err != nil {
		return benchio.Report{}, err
	}
	heap, err := runRdmaSuite(cfg, rb, sim.KernelHeap)
	if err != nil {
		return benchio.Report{}, err
	}
	if err := sameRdmaResults(ladder.Results, heap.Results); err != nil {
		return benchio.Report{}, fmt.Errorf("rdmabench: ladder/heap kernels diverged: %w", err)
	}
	return ladder, nil
}

// sameRdmaResults checks bit-identity of the measured quantities across
// the two kernel runs.
func sameRdmaResults(a, b []benchio.Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d rows", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Name != y.Name || x.Requests != y.Requests || x.Errors != y.Errors ||
			x.ReqPerSec != y.ReqPerSec || x.P50Ns != y.P50Ns || x.P90Ns != y.P90Ns || x.P99Ns != y.P99Ns {
			return fmt.Errorf("row %s: ladder %+v, heap %+v", x.Name, x, y)
		}
	}
	return nil
}

// RenderRdmaBench prints the report: the bypass-vs-lambda headline, the
// throughput-vs-window curve per client count, and the doorbell
// amortization ratio.
func RenderRdmaBench(rep benchio.Report) string {
	var b strings.Builder
	byName := make(map[string]benchio.Result, len(rep.Results))
	for _, r := range rep.Results {
		byName[r.Name] = r
	}
	fmt.Fprintf(&b, "One-sided RDMA fast path (virtual time)\n")
	fmt.Fprintf(&b, "  %-24s %8s %12s %10s %10s\n", "scenario", "requests", "req/s", "p50", "p99")
	for _, r := range rep.Results {
		fmt.Fprintf(&b, "  %-24s %8d %12.0f %10v %10v\n",
			r.Name, r.Requests, r.ReqPerSec,
			time.Duration(r.P50Ns), time.Duration(r.P99Ns))
	}
	// Headline: best bypass row vs the lambda baseline at the same
	// client count.
	for _, r := range rep.Results {
		var c int
		if _, err := fmt.Sscanf(r.Name, "kvget/lambda/c%d", &c); err != nil {
			continue
		}
		best := math.Inf(-1)
		for _, s := range rep.Results {
			var w, sc int
			if _, err := fmt.Sscanf(s.Name, "kvget/bypass/w%d/c%d", &w, &sc); err == nil && sc == c {
				if s.ReqPerSec > best {
					best = s.ReqPerSec
				}
			}
		}
		if best > 0 && r.ReqPerSec > 0 {
			fmt.Fprintf(&b, "  c=%d bypass speedup over lambda path: %.2fx\n", c, best/r.ReqPerSec)
		}
	}
	if db, ok1 := firstWithPrefix(rep.Results, "large/doorbell/"); ok1 {
		if pf, ok2 := firstWithPrefix(rep.Results, "large/perfrag/"); ok2 && pf.ReqPerSec > 0 {
			fmt.Fprintf(&b, "  doorbell batching speedup over per-fragment: %.2fx\n",
				db.ReqPerSec/pf.ReqPerSec)
		}
	}
	return b.String()
}

func firstWithPrefix(results []benchio.Result, prefix string) (benchio.Result, bool) {
	for _, r := range results {
		if strings.HasPrefix(r.Name, prefix) {
			return r, true
		}
	}
	return benchio.Result{}, false
}
