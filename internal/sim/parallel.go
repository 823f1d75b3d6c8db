package sim

import (
	"cmp"
	"slices"
)

// Parallel coordinates several simulation domains — each a full Sim
// with its own kernel, clock, and RNG — under conservative synchronous
// lookahead synchronization. It is the multi-NIC scaleout mode: one
// domain per NIC/host runs on its own core, and determinism is
// preserved by construction rather than by luck.
//
// The protocol is null-message-free barrier rounds. Each round the
// coordinator takes tmin, the earliest pending event time across all
// domains, and lets every domain with an event strictly before
// tmin + lookahead execute up to there, concurrently; the others sit
// the round out, and a lone active domain runs on the coordinator.
// Cross-domain interactions go through Domain.Send, which models a
// link of latency >= lookahead; outboxes are collected at the barrier
// and delivered before the next round in a deterministic
// (at, src, order) sort. Because a message sent at
// time t >= tmin arrives at t + lookahead >= tmin + lookahead — at or
// after the window edge every domain stopped at — no domain can
// receive an event in its past, and the round's executions are
// independent. See DESIGN.md "Simulation kernel" for the proof sketch.
//
// With lookahead <= 0 the domains are declared non-interacting: Send
// panics, and Run executes each domain to completion concurrently in a
// single round.
//
// Within a round each domain runs on exactly one goroutine and touches
// only its own state, so scheduling, pooling, and RNG draws need no
// locks; the coordinator synchronizes rounds with channels. Results
// are bit-identical across runs and across worker interleavings for a
// fixed domain count and lookahead.
type Parallel struct {
	lookahead Time
	domains   []*Domain
	// Serial forces rounds to execute domains sequentially in id order
	// on the calling goroutine — same results, no concurrency. Tests
	// use it to prove the parallel execution is interleaving-free.
	Serial bool

	stats ParallelStats
}

// ParallelStats counts a group's coordination work across every Run —
// where the wall time of a parallel run goes besides firing events.
type ParallelStats struct {
	// Rounds is the number of barrier rounds (one per Run for an
	// independent group).
	Rounds uint64
	// Windows is the number of domain windows run: one per active
	// domain per round. Windows/Rounds is the parallelism on offer.
	Windows uint64
	// Inline is the number of rounds run on the coordinator goroutine
	// with no worker handoff: a lone active domain, or Serial.
	Inline uint64
	// Events is the number of events fired, summed across domains.
	Events uint64
}

// Add sums two groups' counters.
func (s ParallelStats) Add(o ParallelStats) ParallelStats {
	return ParallelStats{
		Rounds:  s.Rounds + o.Rounds,
		Windows: s.Windows + o.Windows,
		Inline:  s.Inline + o.Inline,
		Events:  s.Events + o.Events,
	}
}

// Stats returns the group's coordination counters.
func (p *Parallel) Stats() ParallelStats {
	st := p.stats
	st.Events = p.Executed()
	return st
}

// Domain is one simulation domain inside a Parallel group. It embeds
// its Sim, so components built on a *Sim run unchanged inside a domain.
type Domain struct {
	*Sim
	par   *Parallel
	id    int
	out   []xmsg
	order uint64
}

// xmsg is a cross-domain event in flight between rounds.
type xmsg struct {
	src, dst int
	order    uint64 // per-source send counter, for deterministic ties
	at       Time
	fn       func()
}

// NewParallel returns a coordinator whose domains may interact through
// links of latency at least lookahead. A non-positive lookahead
// declares the domains independent (no Send allowed).
func NewParallel(lookahead Time) *Parallel {
	return &Parallel{lookahead: lookahead}
}

// Lookahead returns the group's synchronization lookahead.
func (p *Parallel) Lookahead() Time { return p.lookahead }

// NewDomain adds a domain backed by the default ladder kernel.
func (p *Parallel) NewDomain(seed int64) *Domain {
	return p.NewDomainKernel(seed, KernelLadder)
}

// NewDomainKernel adds a domain with an explicit queue kernel.
func (p *Parallel) NewDomainKernel(seed int64, kind KernelKind) *Domain {
	d := &Domain{Sim: NewWithKernel(seed, kind), par: p, id: len(p.domains)}
	p.domains = append(p.domains, d)
	return d
}

// Domains returns the group's domains in id order.
func (p *Parallel) Domains() []*Domain { return p.domains }

// ID returns the domain's index within its group.
func (d *Domain) ID() int { return d.id }

// Send schedules fn on domain dst after at least the group's lookahead
// of virtual time — the cross-domain counterpart of Schedule, modeling
// a message over the inter-NIC link. A delay below the lookahead is
// clamped up to it: the lookahead is the link's minimum latency, so a
// shorter delay would be a modeling error (and would break the
// synchronization invariant). Must be called from the sending domain's
// own callbacks.
func (d *Domain) Send(dst int, delay Time, fn func()) {
	la := d.par.lookahead
	if la <= 0 {
		panic("sim: Send on an independent (lookahead<=0) parallel group")
	}
	if delay < la {
		delay = la
	}
	d.out = append(d.out, xmsg{
		src: d.id, dst: dst, order: d.order, at: d.Sim.Now() + delay, fn: fn,
	})
	d.order++
}

// Executed sums fired events across all domains.
func (p *Parallel) Executed() uint64 {
	var n uint64
	for _, d := range p.domains {
		n += d.Executed
	}
	return n
}

// Clock returns the most advanced domain clock.
func (p *Parallel) Clock() Time {
	var t Time
	for _, d := range p.domains {
		if d.Now() > t {
			t = d.Now()
		}
	}
	return t
}

// Pending sums pending events across all domains.
func (p *Parallel) Pending() int {
	n := 0
	for _, d := range p.domains {
		n += d.Sim.Pending()
	}
	return n
}

// Run executes all domains until every queue drains, every clock passes
// horizon, or a domain calls Stop. A zero horizon means no time limit.
// Like Sim.Run it clears stop flags on entry, parks clocks at the
// horizon when one is given, and returns ErrStopped if halted.
func (p *Parallel) Run(horizon Time) error {
	for _, d := range p.domains {
		d.stopped = false
	}
	if p.lookahead <= 0 {
		p.stats.Rounds++
		p.stats.Windows += uint64(len(p.domains))
		if p.Serial {
			p.stats.Inline++
		}
		return p.runRound(func(d *Domain) error { return d.Sim.Run(horizon) })
	}

	// Persistent per-domain workers: rounds are numerous (one per
	// lookahead-wide event cluster), so goroutine spawns per round
	// would dominate small-lookahead runs.
	errs := make([]error, len(p.domains))
	var starts []chan Time
	var done chan struct{}
	if !p.Serial {
		starts = make([]chan Time, len(p.domains))
		done = make(chan struct{})
		for i, d := range p.domains {
			starts[i] = make(chan Time)
			go func(i int, d *Domain) {
				for limit := range starts[i] {
					errs[i] = d.Sim.runWindow(limit)
					done <- struct{}{}
				}
			}(i, d)
		}
		defer func() {
			for _, c := range starts {
				close(c)
			}
		}()
	}
	// round runs the active domains — those with an event below limit;
	// any other domain would fire nothing and keep its clock. The last
	// active domain runs on this goroutine, so a lone one needs no
	// worker handoff at all.
	var active []int
	round := func(limit Time) error {
		p.stats.Rounds++
		p.stats.Windows += uint64(len(active))
		if p.Serial || len(active) == 1 {
			p.stats.Inline++
			for _, i := range active {
				errs[i] = p.domains[i].Sim.runWindow(limit)
			}
		} else {
			last := active[len(active)-1]
			for _, i := range active[:len(active)-1] {
				starts[i] <- limit
			}
			errs[last] = p.domains[last].Sim.runWindow(limit)
			for range active[1:] {
				<-done
			}
		}
		return firstErr(errs)
	}

	var inbox []xmsg
	next := make([]Time, len(p.domains)) // -1: nothing pending
	for {
		// Collect every outbox — also those of a round that ended in
		// Stop, left over from the previous Run — and deliver in a
		// deterministic order, so destination seq assignment (and thus
		// tie-breaks) never depends on worker interleaving.
		for _, d := range p.domains {
			inbox = append(inbox, d.out...)
			clear(d.out)
			d.out = d.out[:0]
		}
		slices.SortFunc(inbox, func(a, b xmsg) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			if c := cmp.Compare(a.src, b.src); c != 0 {
				return c
			}
			return cmp.Compare(a.order, b.order)
		})
		for _, m := range inbox {
			p.domains[m.dst].At(m.at, m.fn)
		}
		clear(inbox)
		inbox = inbox[:0]

		tmin, any := Time(0), false
		for i, d := range p.domains {
			at, ok := d.nextAt()
			if !ok {
				at = -1
			} else if !any || at < tmin {
				tmin, any = at, true
			}
			next[i] = at
		}
		if !any {
			break
		}
		if horizon > 0 && tmin > horizon {
			break
		}
		limit := tmin + p.lookahead
		if horizon > 0 && limit > horizon {
			// runWindow fires strictly below limit; include the horizon
			// itself, matching Run's at <= horizon.
			limit = horizon + 1
		}
		active = active[:0]
		for i, at := range next {
			if at >= 0 && at < limit {
				active = append(active, i)
			}
		}
		if err := round(limit); err != nil {
			return err
		}
	}
	if horizon > 0 {
		for _, d := range p.domains {
			if d.now < horizon {
				d.now = horizon
			}
		}
	}
	return nil
}

// RunUntilIdle executes until every domain's queue drains.
func (p *Parallel) RunUntilIdle() error { return p.Run(0) }

// runRound executes body for every domain — concurrently, one
// goroutine per domain, unless Serial is set.
func (p *Parallel) runRound(body func(*Domain) error) error {
	errs := make([]error, len(p.domains))
	if p.Serial {
		for i, d := range p.domains {
			errs[i] = body(d)
		}
	} else {
		done := make(chan struct{})
		for i, d := range p.domains {
			go func(i int, d *Domain) {
				errs[i] = body(d)
				done <- struct{}{}
			}(i, d)
		}
		for range p.domains {
			<-done
		}
	}
	return firstErr(errs)
}

// firstErr returns the first non-nil error in domain-id order, so error
// reporting is deterministic too. A non-nil error ends Run, so errs
// never carries one over from an earlier round.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
