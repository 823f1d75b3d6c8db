package experiments

import (
	"fmt"
	"time"

	"lambdanic/internal/backend"
	"lambdanic/internal/cluster"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/workloads"
)

// rack is the seam between a rack scenario (chaos, tenants, skew,
// boundary) and the hardware it drives: a row of worker NICs named m2,
// m3, …, optionally one host, and the control simulation that the
// scenario's router, load generator and report live on. The devices
// either share the control clock, or each run in a simulation domain of
// their own under the conservative parallel coordinator, synchronized
// by the link's one-way floor (the lookahead).
//
// Every wire hop costs exactly one scheduled event in both modes — a
// Schedule inside backend Call on the shared clock, a cross-domain Send
// here — so event counts, clocks and reports are bit-identical between
// the modes, which is what the serial≡parallel differential tests
// check.
type rack struct {
	ctrl  *sim.Sim
	names []string
	nics  map[string]*backend.LambdaNIC
	host  *backend.Host
	link  cluster.LinkConfig

	// Parallel mode only: the coordinator, the control domain, and the
	// domain owning each device.
	par     *sim.Parallel
	ctrlDom *sim.Domain
	doms    map[string]*sim.Domain
	hostDom *sim.Domain
}

// rackSpec describes a rack's hardware.
type rackSpec struct {
	// name prefixes construction errors (the scenario's name).
	name    string
	testbed cluster.Testbed
	workers int
	// nic is every worker NIC's scheduler config, and deploy the
	// workloads each NIC (and the host) serves.
	nic    nicsim.Config
	deploy []*workloads.Workload
	// host adds one bare-metal host without scheduling jitter, which
	// would draw on each domain's RNG differently between the modes.
	host bool
}

// device is what the rack needs of a backend: the round trip on the
// caller's clock, and the device side alone for parallel domains.
type device interface {
	Call(req backend.Request, done func(backend.Result))
	Serve(req backend.Request, done func(backend.Result, sim.Time))
}

// newRack builds the spec's NICs, then its host, all on one
// simulation, or with parallel set in one domain each behind the
// control domain. Each NIC compiles its own firmware image, so no
// executable state is shared across domains.
func newRack(cfg Config, spec rackSpec, parallel bool) (*rack, error) {
	r := &rack{
		names: make([]string, spec.workers),
		nics:  make(map[string]*backend.LambdaNIC, spec.workers),
		link:  spec.testbed.Link,
	}
	// place returns the simulation a new device runs on, and its domain
	// when parallel.
	place := func() (*sim.Sim, *sim.Domain) { return r.ctrl, nil }
	if parallel {
		// Every wire hop is OneWay(n) >= OneWay(0), so Send's
		// minimum-latency clamp never engages and cross-domain timing
		// matches the shared clock exactly.
		r.par = sim.NewParallel(r.link.OneWay(0))
		r.ctrlDom = r.par.NewDomainKernel(cfg.Seed, cfg.Kernel)
		r.ctrl = r.ctrlDom.Sim
		r.doms = make(map[string]*sim.Domain, spec.workers)
		place = func() (*sim.Sim, *sim.Domain) {
			d := r.par.NewDomainKernel(cfg.Seed, cfg.Kernel)
			return d.Sim, d
		}
	} else {
		r.ctrl = cfg.newSim()
	}
	for i := range r.names {
		name := fmt.Sprintf("m%d", i+2)
		r.names[i] = name
		s, d := place()
		b, err := backend.NewLambdaNICWithConfig(s, spec.testbed, spec.nic)
		if err == nil {
			err = b.Deploy(spec.deploy)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		r.nics[name] = b
		if d != nil {
			r.doms[name] = d
		}
	}
	if spec.host {
		s, d := place()
		h, err := backend.NewBareMetalQuiet(s, spec.testbed)
		if err == nil {
			err = h.Deploy(spec.deploy)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		r.host, r.hostDom = h, d
	}
	return r, nil
}

// call performs one full round trip to the named worker NIC — request
// hop, NIC execution, response hop — calling done back on the control
// clock. A crashed NIC is a black hole: done never fires.
func (r *rack) call(name string, req backend.Request, done func(backend.Result)) {
	r.roundTrip(r.nics[name], r.doms[name], req, done)
}

// callHost is call for the rack's host.
func (r *rack) callHost(req backend.Request, done func(backend.Result)) {
	r.roundTrip(r.host, r.hostDom, req, done)
}

func (r *rack) roundTrip(dev device, d *sim.Domain, req backend.Request, done func(backend.Result)) {
	if r.par == nil {
		dev.Call(req, done)
		return
	}
	// The span container would cross goroutines, so device-internal
	// spans are dropped in parallel mode. Spans never schedule events,
	// so timing is unaffected.
	req.Trace = nil
	r.ctrlDom.Send(d.ID(), r.link.OneWay(len(req.Payload)), func() {
		dev.Serve(req, func(res backend.Result, back sim.Time) {
			d.Send(r.ctrlDom.ID(), back, func() { done(res) })
		})
	})
}

// device returns the named worker's NIC, for stats and fault
// application.
func (r *rack) device(name string) *nicsim.NIC { return r.nics[name].NIC() }

// deviceAt schedules fn at t on the simulation owning the named
// worker's NIC. Only call it before run.
func (r *rack) deviceAt(name string, t sim.Time, fn func()) {
	if r.par == nil {
		r.ctrl.At(t, fn)
		return
	}
	r.doms[name].At(t, fn)
}

// run executes until every queue drains.
func (r *rack) run() error {
	if r.par == nil {
		return r.ctrl.RunUntilIdle()
	}
	return r.par.RunUntilIdle()
}

// executed is the number of events fired, summed across domains.
func (r *rack) executed() uint64 {
	if r.par == nil {
		return r.ctrl.Executed
	}
	return r.par.Executed()
}

// clock is the virtual time of the last fired event (the most advanced
// domain clock in parallel mode).
func (r *rack) clock() sim.Time {
	if r.par == nil {
		return r.ctrl.Now()
	}
	return r.par.Clock()
}

// domains is the number of simulation domains: 1 on a shared clock,
// else 1 control + 1 per device.
func (r *rack) domains() int {
	if r.par == nil {
		return 1
	}
	return len(r.par.Domains())
}

// parStats is the parallel coordinator's work, zero on a shared clock.
func (r *rack) parStats() sim.ParallelStats {
	if r.par == nil {
		return sim.ParallelStats{}
	}
	return r.par.Stats()
}

// every runs fn on the control clock at period, 2·period, … up to and
// including the first tick at or past end: one event per tick, the
// same event re-armed each time.
func (r *rack) every(period time.Duration, end sim.Time, fn func()) {
	var ev *sim.Event
	ev = r.ctrl.Schedule(period, func() {
		fn()
		if r.ctrl.Now() < end {
			ev = r.ctrl.Reschedule(ev, period)
		}
	})
}
