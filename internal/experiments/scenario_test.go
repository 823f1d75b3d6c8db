package experiments

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"lambdanic/internal/sim"
)

// TestScenarioConfigsComplete is the safety net for the rack scenarios'
// configs: nothing fills in a zero field at run time, so every field of
// every shipped configuration must be set.
func TestScenarioConfigsComplete(t *testing.T) {
	for name, cfg := range map[string]any{
		"DefaultChaos":    DefaultChaos(),
		"QuickChaos":      QuickChaos(),
		"DefaultTenants":  DefaultTenants(),
		"QuickTenants":    QuickTenants(),
		"DefaultSkew":     DefaultSkew(),
		"QuickSkew":       QuickSkew(),
		"DefaultBoundary": DefaultBoundary(),
		"QuickBoundary":   QuickBoundary(),
	} {
		v := reflect.ValueOf(cfg)
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Errorf("%s().%s is zero", name, v.Type().Field(i).Name)
			}
		}
	}
}

func TestLedgerPhases(t *testing.T) {
	const vip, bulk = 1, 2
	ms := time.Millisecond
	led := newLedger(0)
	led.done(vip, 0, 1*ms, nil)
	led.done(vip, 5*ms, 90*ms, errors.New("timeout"))
	led.done(bulk, 5*ms, 7*ms, nil)
	led.done(vip, 10*ms, 2*ms, nil) // exactly at the bound: the later phase
	led.shed(vip, 12*ms)

	got := led.phases(vip, []span{{"a", 0, 10 * ms}, {"b", 10 * ms, 20 * ms}, {"empty", 20 * ms, 30 * ms}})
	want := []PhaseStat{
		// The failed request counts, but its latency is not a percentile.
		{Phase: "a", Start: 0, End: 10 * ms, Requests: 2, Errors: 1, Availability: 0.5,
			P50: 1 * ms, P99: 1 * ms, P999: 1 * ms},
		// The shed arrival is counted apart from Requests.
		{Phase: "b", Start: 10 * ms, End: 20 * ms, Requests: 1, Shed: 1, Availability: 1,
			P50: 2 * ms, P99: 2 * ms, P999: 2 * ms},
		{Phase: "empty", Start: 20 * ms, End: 30 * ms},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("phases:\n got %+v\nwant %+v", got, want)
	}

	all := led.phase(allClasses, wholeRun)
	if all.Requests != 4 || all.Errors != 1 || all.Shed != 1 {
		t.Errorf("whole run, every class: %+v", all)
	}
	if b := led.phase(bulk, wholeRun); b.Requests != 1 || b.P50 != 7*ms {
		t.Errorf("whole run, bulk: %+v", b)
	}
}

func TestPoissonEmitsFromStartUntilEnd(t *testing.T) {
	// A constant unit "exponential" makes every gap 1/rate exactly.
	var got []sim.Time
	draws := 0
	unit := func() float64 { draws++; return 1 }
	poisson(2*time.Millisecond, 5*time.Millisecond, 1000, unit, func(at sim.Time) { got = append(got, at) })
	want := []sim.Time{2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("arrivals %v, want %v", got, want)
	}
	// One gap is drawn after each arrival, the last one past the end.
	if draws != len(want) {
		t.Errorf("%d gaps drawn, want %d", draws, len(want))
	}
}
