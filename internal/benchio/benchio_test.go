package benchio

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestClosedLoopCountsAndThroughput(t *testing.T) {
	res := ClosedLoop("t", "memnet", 4, 50*time.Millisecond, func() error {
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if res.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if res.Mode != "closed" || res.Concurrency != 4 {
		t.Errorf("mode/concurrency = %s/%d", res.Mode, res.Concurrency)
	}
	if res.ReqPerSec <= 0 {
		t.Errorf("ReqPerSec = %f", res.ReqPerSec)
	}
	if res.P50Ns <= 0 || res.P99Ns < res.P50Ns {
		t.Errorf("percentiles p50=%d p99=%d", res.P50Ns, res.P99Ns)
	}
}

func TestClosedLoopCountsErrors(t *testing.T) {
	fail := errors.New("boom")
	n := 0
	res := ClosedLoop("t", "memnet", 1, 10*time.Millisecond, func() error {
		n++
		if n%2 == 0 {
			return fail
		}
		return nil
	})
	if res.Errors == 0 {
		t.Error("errors not counted")
	}
	if res.Errors > res.Requests {
		t.Errorf("errors %d > requests %d", res.Errors, res.Requests)
	}
}

func TestOpenLoopRespectsOfferedRate(t *testing.T) {
	res := OpenLoop("t", "memnet", 2000, 100*time.Millisecond, 64, func() error {
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if res.Mode != "open" || res.OfferedRPS != 2000 {
		t.Errorf("mode/rate = %s/%f", res.Mode, res.OfferedRPS)
	}
	// ~200 arrivals offered; allow a broad band for scheduler jitter.
	total := res.Requests + res.Shed
	if total < 100 || total > 300 {
		t.Errorf("arrivals = %d, want ≈200", total)
	}
}

func TestOpenLoopShedsOverCap(t *testing.T) {
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		res := OpenLoop("t", "memnet", 5000, 50*time.Millisecond, 1, func() error {
			<-block
			return nil
		})
		if res.Shed == 0 {
			t.Error("expected shed arrivals with in-flight cap 1")
		}
	}()
	time.Sleep(80 * time.Millisecond)
	close(block)
	<-done
}

func TestWriteJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_rpc.json")
	rep := NewReport([]Result{{
		Name: "roundtrip", Transport: "memnet", Mode: "closed",
		Concurrency: 4, Requests: 100, ReqPerSec: 12345.6,
		P50Ns: 1000, P90Ns: 2000, P99Ns: 3000, AllocsPerOp: 1.5,
	}})
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.GoVersion == "" || len(back.Results) != 1 {
		t.Errorf("report = %+v", back)
	}
	r := back.Results[0]
	if r.Name != "roundtrip" || r.ReqPerSec != 12345.6 || r.P99Ns != 3000 {
		t.Errorf("result = %+v", r)
	}
}

func TestReadJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	rep := NewReport([]Result{{Name: "sched/heap", ReqPerSec: 100}})
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || back.Results[0].Name != "sched/heap" {
		t.Errorf("report = %+v", back)
	}
}

func guardReport(rates map[string]float64) Report {
	var rs []Result
	for name, rps := range rates {
		rs = append(rs, Result{Name: name, ReqPerSec: rps})
	}
	return NewReport(rs)
}

func TestGuard(t *testing.T) {
	baseline := guardReport(map[string]float64{
		"sched/heap": 100, "sched/ladder": 300, "timers/ladder": 500,
		"scaleout16/domains=4": 400,
	})

	// Twice as fast across the board: ratios unchanged, guard passes.
	ok := guardReport(map[string]float64{
		"sched/heap": 200, "sched/ladder": 600, "timers/ladder": 1000,
		"scaleout16/domains=4": 100, // unguarded prefix: may regress freely
	})
	if err := Guard(baseline, ok, "sched/heap", 0.20, "sched/", "timers/"); err != nil {
		t.Errorf("uniform speed change failed the guard: %v", err)
	}

	// Ladder ratio fell from 3x to 2x the reference: a 33% relative
	// regression, beyond the 20% tolerance.
	bad := guardReport(map[string]float64{
		"sched/heap": 100, "sched/ladder": 200, "timers/ladder": 500,
	})
	err := Guard(baseline, bad, "sched/heap", 0.20, "sched/", "timers/")
	if err == nil {
		t.Fatal("33% relative regression passed the guard")
	}
	if !strings.Contains(err.Error(), "sched/ladder") {
		t.Errorf("violation should name sched/ladder: %v", err)
	}

	// A row present on only one side is ignored.
	sparse := guardReport(map[string]float64{"sched/heap": 100, "sched/new-row": 1})
	if err := Guard(baseline, sparse, "sched/heap", 0.20, "sched/", "timers/"); err != nil {
		t.Errorf("new row failed the guard: %v", err)
	}

	// Missing reference is an explicit error.
	if err := Guard(baseline, guardReport(map[string]float64{"sched/ladder": 1}),
		"sched/heap", 0.20, "sched/"); err == nil {
		t.Error("missing reference row should error")
	}
}

func TestGuardExact(t *testing.T) {
	row := func(name string, p99 int64) Result {
		return Result{Name: name, Requests: 100, Errors: 1, Shed: 2, ReqPerSec: 1234.5,
			P50Ns: 10, P90Ns: 20, P99Ns: p99, P999Ns: 40}
	}
	baseline := NewReport([]Result{row("skew/rr", 30), row("skew/pinned", 30), row("other/x", 30)})

	// Identical guarded rows pass; unguarded rows may differ or vanish.
	same := NewReport([]Result{row("skew/rr", 30), row("skew/pinned", 30), row("other/y", 99)})
	if err := GuardExact(baseline, same, "skew/"); err != nil {
		t.Errorf("identical rows failed the guard: %v", err)
	}

	// Any one measured field differing fails and names the row.
	for field, mutate := range map[string]func(*Result){
		"requests":  func(r *Result) { r.Requests++ },
		"errors":    func(r *Result) { r.Errors-- },
		"shed":      func(r *Result) { r.Shed++ },
		"req/s":     func(r *Result) { r.ReqPerSec += 1e-9 },
		"p50":       func(r *Result) { r.P50Ns-- },
		"p90":       func(r *Result) { r.P90Ns++ },
		"p99 lower": func(r *Result) { r.P99Ns-- },
		"p999":      func(r *Result) { r.P999Ns++ },
	} {
		bad := row("skew/pinned", 30)
		mutate(&bad)
		err := GuardExact(baseline, NewReport([]Result{row("skew/rr", 30), bad}), "skew/")
		if err == nil {
			t.Errorf("%s change passed the guard", field)
		} else if !strings.Contains(err.Error(), "skew/pinned") || strings.Contains(err.Error(), "skew/rr") {
			t.Errorf("%s change: violation should name skew/pinned only: %v", field, err)
		}
	}

	// A guarded row on only one side fails, either way round.
	extra := NewReport([]Result{row("skew/rr", 30), row("skew/pinned", 30), row("skew/new", 30)})
	if err := GuardExact(baseline, extra, "skew/"); err == nil || !strings.Contains(err.Error(), "skew/new") {
		t.Errorf("row missing from the baseline passed or went unnamed: %v", err)
	}
	missing := NewReport([]Result{row("skew/rr", 30)})
	if err := GuardExact(baseline, missing, "skew/"); err == nil || !strings.Contains(err.Error(), "skew/pinned") {
		t.Errorf("row missing from the report passed or went unnamed: %v", err)
	}
}
