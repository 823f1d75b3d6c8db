package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"lambdanic/internal/benchio"
	"lambdanic/internal/metrics"
	"lambdanic/internal/sim"
	"lambdanic/internal/telemetry"
)

// The rack scenarios (chaos, tenants, skew, boundary) share one
// harness beside the rack itself: open-loop arrivals from poisson, a
// periodic control tick from rack.every, every finished request
// recorded once in a ledger, and the ledger summarized per phase into
// PhaseStat rows for the report, the renders and the benchmark file.
// What is left in each scenario is its spec (load, faults, control
// plane) and its verdict.

// PhaseStat summarizes the requests of one traffic class that arrived
// during one phase of a rack scenario's run. Requests are attributed by
// arrival time, so a backlog charges the phase that caused it.
type PhaseStat struct {
	// Class names the traffic class (the tenant in the tenants
	// experiment); empty when the summary covers every class.
	Class string
	// Phase names the window [Start, End) of arrival times.
	Phase      string
	Start, End time.Duration
	// Requests counts the arrivals admitted into the rack and Errors
	// the admitted requests that failed; Shed counts the arrivals
	// rejected at admission, which are not in Requests.
	Requests int
	Errors   int
	Shed     int
	// Availability is the fraction of Requests answered successfully
	// (a failover counts as success: the client got a response).
	Availability float64
	// P50, P99 and P999 are over successful requests only.
	P50, P99, P999 time.Duration
}

// span is one reporting phase of a run: the arrivals in [from, to).
type span struct {
	name     string
	from, to sim.Time
}

// wholeRun is the span of every arrival of a run.
var wholeRun = span{name: "all", to: math.MaxInt64}

// outcome is how a request left the rack.
type outcome uint8

const (
	outServed outcome = iota
	outFailed
	outShed
)

// allClasses summarizes a ledger across every traffic class.
const allClasses = -1

// record is one finished request.
type record struct {
	at    sim.Time
	lat   time.Duration
	class int32
	out   outcome
}

// ledger records every finished request of one run once, for
// summarizing into phases after the run.
type ledger struct{ recs []record }

// newLedger returns a ledger with room for n requests (the pre-drawn
// schedule's length, when known).
func newLedger(n int) *ledger { return &ledger{recs: make([]record, 0, n)} }

// done records a request of class that arrived at `at` and finished
// lat later, failed when err is set.
func (l *ledger) done(class int, at sim.Time, lat time.Duration, err error) {
	out := outServed
	if err != nil {
		out = outFailed
	}
	l.recs = append(l.recs, record{at: at, lat: lat, class: int32(class), out: out})
}

// shed records an arrival of class rejected at admission at `at`.
func (l *ledger) shed(class int, at sim.Time) {
	l.recs = append(l.recs, record{at: at, class: int32(class), out: outShed})
}

// phase summarizes the requests of class (or allClasses) that arrived
// in sp.
func (l *ledger) phase(class int, sp span) PhaseStat {
	st := PhaseStat{Phase: sp.name, Start: sp.from, End: sp.to}
	var lat metrics.Sample
	for _, r := range l.recs {
		if (class != allClasses && int(r.class) != class) || r.at < sp.from || r.at >= sp.to {
			continue
		}
		switch r.out {
		case outShed:
			st.Shed++
		case outFailed:
			st.Requests++
			st.Errors++
		default:
			st.Requests++
			lat.AddDuration(r.lat)
		}
	}
	if st.Requests > 0 {
		st.Availability = float64(st.Requests-st.Errors) / float64(st.Requests)
	}
	st.P50 = time.Duration(lat.P50() * float64(time.Second))
	st.P99 = time.Duration(lat.P99() * float64(time.Second))
	st.P999 = time.Duration(lat.P999() * float64(time.Second))
	return st
}

// phases is phase over each span in turn.
func (l *ledger) phases(class int, spans []span) []PhaseStat {
	out := make([]PhaseStat, len(spans))
	for i, sp := range spans {
		out[i] = l.phase(class, sp)
	}
	return out
}

// poisson emits open-loop arrivals over [from, to) at rate per second:
// the first at from, then each after an exponential gap (see expGap).
// exp draws a unit-mean exponential variate from the scenario's own
// seeded source, and each gap is drawn after the emit before it.
func poisson(from, to sim.Time, rate float64, exp func() float64, emit func(at sim.Time)) {
	for at := from; at < to; at += expGap(rate, exp) {
		emit(at)
	}
}

// expGap draws one interarrival gap at rate per second.
func expGap(rate float64, exp func() float64) sim.Time {
	return sim.Time(exp() / rate * float64(time.Second))
}

// Rack scenario SLO targets: three nines of availability and a p99
// latency objective.
const (
	sloAvailabilityTarget = 0.999
	sloLatencyQuantile    = 0.99
)

// newRackSLO grades availability and p99 latency (against threshold)
// over a rolling window of four slot-long slots on the control
// clock, starting at time zero.
func newRackSLO(availability, latency string, slot, threshold time.Duration) (*telemetry.SLOTracker, error) {
	slo, err := telemetry.NewSLOTracker(
		telemetry.NewWindowed(telemetry.WindowConfig{Slots: 4, SlotDuration: slot}),
		telemetry.Objective{
			Name: availability, Kind: telemetry.ObjectiveAvailability,
			Target: sloAvailabilityTarget,
		},
		telemetry.Objective{
			Name: latency, Kind: telemetry.ObjectiveLatency,
			Target: sloLatencyQuantile, Threshold: threshold,
		},
	)
	if err != nil {
		return nil, err
	}
	slo.Windowed().Stats(0)
	return slo, nil
}

// benchRow is a phase summary as a virtual-clock benchmark row; over,
// when positive, is the duration its request rate is taken over.
func benchRow(name string, p PhaseStat, over time.Duration) benchio.Result {
	row := benchio.Result{
		Name:      name,
		Transport: "nicsim",
		Mode:      "open",
		Requests:  p.Requests,
		Errors:    p.Errors,
		Shed:      p.Shed,
		P50Ns:     p.P50.Nanoseconds(),
		P99Ns:     p.P99.Nanoseconds(),
		P999Ns:    p.P999.Nanoseconds(),
	}
	if d := over.Seconds(); d > 0 {
		row.ReqPerSec = float64(p.Requests) / d
	}
	return row
}

// policyRun is one policy's run in a multi-policy rack scenario (skew,
// boundary): its name and the determinism fingerprint of its
// simulation, which serial and parallel runs and both kernels must
// reproduce exactly.
type policyRun struct {
	Policy string
	// Executed is the number of simulation events fired, summed across
	// domains; FinalClock is the virtual time of the last one.
	Executed   uint64
	FinalClock time.Duration
}

func (p policyRun) run() policyRun { return p }

// policyRow is a multi-policy scenario's per-policy report row, which
// embeds its policyRun.
type policyRow interface{ run() policyRun }

// rowOf returns the named policy's row (nil if absent).
func rowOf[R policyRow](rows []R, policy string) *R {
	for i := range rows {
		if rows[i].run().Policy == policy {
			return &rows[i]
		}
	}
	return nil
}

// writeFingerprint renders a multi-policy scenario's fingerprint line:
// the domain count, then events@clock per policy run.
func writeFingerprint[R policyRow](b *strings.Builder, domains int, rows []R) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(b, "  fingerprint: %d domains", domains)
	for _, row := range rows {
		p := row.run()
		fmt.Fprintf(b, " %s=%d@%v", p.Policy, p.Executed, p.FinalClock)
	}
	fmt.Fprintf(b, "\n")
}
