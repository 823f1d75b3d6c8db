package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"lambdanic/internal/obs"
)

// TestLatencyBreakdownAttribution is the tracing acceptance check: for
// every traced request of a closed-loop run on the nicsim backend, the
// recorded stage spans (queue + instruction + memory stalls +
// transport) must sum to the measured end-to-end latency within 1%.
func TestLatencyBreakdownAttribution(t *testing.T) {
	rep, err := LatencyBreakdown(Quick())
	if err != nil {
		t.Fatalf("LatencyBreakdown: %v", err)
	}
	if len(rep.Requests) == 0 {
		t.Fatal("no requests traced")
	}
	for _, r := range rep.Requests {
		e2e := r.End - r.Start
		if e2e <= 0 {
			t.Fatalf("request %d: non-positive e2e latency %v", r.ID, e2e)
		}
		var sum time.Duration
		for _, sp := range r.Spans {
			sum += sp.End - sp.Start
		}
		diff := sum - e2e
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.01*float64(e2e) {
			t.Errorf("request %d (%s): stage sum %v vs e2e %v (diff %v > 1%%)",
				r.ID, r.Label, sum, e2e, diff)
		}
	}
	// Every benchmark workload must appear, with the pipeline's stages
	// attributed: instruction cycles and at least one memory level.
	if len(rep.Workloads) != 3 {
		t.Fatalf("expected 3 workload breakdowns, got %d", len(rep.Workloads))
	}
	for _, wb := range rep.Workloads {
		stages := map[obs.Stage]bool{}
		for _, st := range wb.Stages {
			stages[st.Stage] = true
		}
		if !stages[obs.StageExec] {
			t.Errorf("%s: no instruction-cycle stage attributed", wb.Label)
		}
		mem := stages[obs.StageMemLMEM] || stages[obs.StageMemCTM] ||
			stages[obs.StageMemIMEM] || stages[obs.StageMemEMEM]
		if !mem {
			t.Errorf("%s: no memory-stall stage attributed", wb.Label)
		}
		if !stages[obs.StageTransport] {
			t.Errorf("%s: no transport stage attributed", wb.Label)
		}
		if wb.Coverage < 0.99 || wb.Coverage > 1.01 {
			t.Errorf("%s: coverage %.4f outside [0.99, 1.01]", wb.Label, wb.Coverage)
		}
	}
	checkGolden(t, "breakdown", RenderLatencyBreakdown(rep))
}

// TestLatencyBreakdownChromeExport checks the traced run exports valid
// Chrome trace-event JSON.
func TestLatencyBreakdownChromeExport(t *testing.T) {
	rep, err := LatencyBreakdown(Quick())
	if err != nil {
		t.Fatalf("LatencyBreakdown: %v", err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rep.Requests); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export has no trace events")
	}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X", "i", "M":
		default:
			t.Fatalf("event %d: unexpected phase %q", i, ph)
		}
	}
	if s := RenderLatencyBreakdown(rep); len(s) == 0 {
		t.Error("empty rendered report")
	}
}
