package sim

import (
	"errors"
	"testing"
	"time"
)

// TestParallelPingPong bounces a message between two domains and checks
// the delivery times follow the link lookahead exactly.
func TestParallelPingPong(t *testing.T) {
	const la = 450 * time.Nanosecond
	p := NewParallel(la)
	a := p.NewDomain(1)
	b := p.NewDomain(2)

	var log []struct {
		dom int
		at  Time
	}
	hops := 0
	var hop func(d *Domain, peer int) func()
	hop = func(d *Domain, peer int) func() {
		return func() {
			log = append(log, struct {
				dom int
				at  Time
			}{d.ID(), d.Now()})
			hops++
			if hops < 6 {
				d.Send(peer, la, hop(p.Domains()[peer], d.ID()))
			}
		}
	}
	a.Schedule(0, hop(a, b.ID()))
	if err := p.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if hops != 6 {
		t.Fatalf("hops %d, want 6", hops)
	}
	for i, e := range log {
		wantDom := i % 2
		wantAt := Time(i) * la
		if e.dom != wantDom || e.at != wantAt {
			t.Fatalf("hop %d on domain %d at %v, want domain %d at %v",
				i, e.dom, e.at, wantDom, wantAt)
		}
	}
}

// TestParallelMatchesSerial runs a messy multi-domain workload twice —
// once with concurrent workers, once with the Serial flag — and
// requires identical executed counts, clocks, and per-domain logs:
// the proof that results never depend on worker interleaving.
func TestParallelMatchesSerial(t *testing.T) {
	run := func(serial bool) ([]uint64, []Time, [][]Time, ParallelStats) {
		const la = time.Microsecond
		p := NewParallel(la)
		p.Serial = serial
		const n = 4
		logs := make([][]Time, n)
		for i := 0; i < n; i++ {
			p.NewDomain(int64(i + 1))
		}
		for i, d := range p.Domains() {
			i, d := i, d
			var tick func()
			count := 0
			tick = func() {
				logs[i] = append(logs[i], d.Now())
				count++
				if count < 50 {
					// Deterministic per-domain jitter plus a cross-domain
					// send every few ticks.
					delay := Time(d.Rand().Intn(3000)) * time.Nanosecond
					d.Schedule(delay, tick)
					if count%5 == 0 {
						dst := (i + 1) % n
						d.Send(dst, la+delay, func() {
							logs[dst] = append(logs[dst], p.Domains()[dst].Now())
						})
					}
				}
			}
			d.Schedule(Time(i)*100*time.Nanosecond, tick)
		}
		if err := p.RunUntilIdle(); err != nil {
			t.Fatalf("run(serial=%v): %v", serial, err)
		}
		execs := make([]uint64, n)
		clocks := make([]Time, n)
		for i, d := range p.Domains() {
			execs[i] = d.Executed
			clocks[i] = d.Now()
		}
		return execs, clocks, logs, p.Stats()
	}

	se, sc, sl, sst := run(true)
	pe, pc, pl, pst := run(false)
	// Serial runs every round inline; the rest of the counters match.
	sst.Inline, pst.Inline = 0, 0
	if sst != pst {
		t.Fatalf("stats %+v serial vs %+v parallel", sst, pst)
	}
	for i := range se {
		if se[i] != pe[i] {
			t.Fatalf("domain %d executed %d serial vs %d parallel", i, se[i], pe[i])
		}
		if sc[i] != pc[i] {
			t.Fatalf("domain %d clock %v serial vs %v parallel", i, sc[i], pc[i])
		}
		if len(sl[i]) != len(pl[i]) {
			t.Fatalf("domain %d log %d serial vs %d parallel", i, len(sl[i]), len(pl[i]))
		}
		for j := range sl[i] {
			if sl[i][j] != pl[i][j] {
				t.Fatalf("domain %d log[%d] %v serial vs %v parallel",
					i, j, sl[i][j], pl[i][j])
			}
		}
	}
}

// TestParallelHorizon checks Run(horizon) semantics match Sim.Run:
// events at the horizon fire, later ones stay pending, and every clock
// parks at the horizon.
func TestParallelHorizon(t *testing.T) {
	p := NewParallel(time.Microsecond)
	a := p.NewDomain(1)
	b := p.NewDomain(2)
	fired := 0
	a.Schedule(time.Millisecond, func() { fired++ })   // exactly at horizon
	b.Schedule(2*time.Millisecond, func() { fired++ }) // beyond
	if err := p.Run(time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired %d, want 1 (event at horizon fires, later one does not)", fired)
	}
	if a.Now() != time.Millisecond || b.Now() != time.Millisecond {
		t.Fatalf("clocks %v %v, want both at horizon", a.Now(), b.Now())
	}
	if p.Pending() != 1 {
		t.Fatalf("pending %d, want 1", p.Pending())
	}
	// Resuming past the horizon fires the rest.
	if err := p.RunUntilIdle(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if fired != 2 || p.Clock() != 2*time.Millisecond {
		t.Fatalf("after resume: fired=%d clock=%v", fired, p.Clock())
	}
}

// TestParallelStop propagates a domain's Stop as ErrStopped.
func TestParallelStop(t *testing.T) {
	p := NewParallel(time.Microsecond)
	a := p.NewDomain(1)
	p.NewDomain(2)
	a.Schedule(time.Microsecond, func() { a.Stop() })
	a.Schedule(time.Millisecond, func() { t.Fatal("event after Stop fired") })
	if err := p.Run(0); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// TestParallelIndependent covers lookahead<=0: domains run to
// completion concurrently and Send is rejected.
func TestParallelIndependent(t *testing.T) {
	p := NewParallel(0)
	for i := 0; i < 4; i++ {
		d := p.NewDomain(int64(i))
		n := 10 * (i + 1)
		for j := 0; j < n; j++ {
			d.Schedule(Time(j)*time.Microsecond, func() {})
		}
	}
	if err := p.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if p.Executed() != 10+20+30+40 {
		t.Fatalf("executed %d, want 100", p.Executed())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Send on independent group did not panic")
		}
	}()
	p.Domains()[0].Send(1, 0, func() {})
}

// TestParallelSendClampsDelay: a sub-lookahead delay is raised to the
// lookahead (the link cannot be faster than its modeled latency).
func TestParallelSendClampsDelay(t *testing.T) {
	const la = time.Microsecond
	p := NewParallel(la)
	a := p.NewDomain(1)
	b := p.NewDomain(2)
	var arrived Time
	a.Schedule(0, func() {
		a.Send(b.ID(), 10*time.Nanosecond, func() { arrived = b.Now() })
	})
	if err := p.RunUntilIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if arrived != la {
		t.Fatalf("arrived at %v, want clamped to lookahead %v", arrived, la)
	}
}

// TestParallelResumeDeliversStoppedRoundOutbox is the regression test
// for messages sent in a round that ends in Stop: they must be
// delivered at their send time plus delay when Run resumes, not a round
// late and clamped into the destination's past.
func TestParallelResumeDeliversStoppedRoundOutbox(t *testing.T) {
	const la = time.Microsecond
	p := NewParallel(la)
	a, b, c := p.NewDomain(1), p.NewDomain(2), p.NewDomain(3)
	var got []Time
	a.At(0, a.Stop)
	b.At(0, func() {
		b.Send(c.ID(), la, func() { got = append(got, c.Now()) })
	})
	c.At(1500*time.Nanosecond, func() { got = append(got, c.Now()) })
	if err := p.RunUntilIdle(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if err := p.RunUntilIdle(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	want := []Time{la, 1500 * time.Nanosecond}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("domain 2 fired at %v, want %v", got, want)
	}
}

// TestParallelStats pins the coordinator's counters on a ping-pong that
// stops at its sixth hop: one round per hop, a third domain active only
// in the first round (which therefore hands off to a worker), every
// other round inline. A fourth domain, whose one event lies beyond the
// run, sits every round out: its executed count and clock stay zero.
func TestParallelStats(t *testing.T) {
	const la = 450 * time.Nanosecond
	for _, serial := range []bool{false, true} {
		p := NewParallel(la)
		p.Serial = serial
		a, b, c, idle := p.NewDomain(1), p.NewDomain(2), p.NewDomain(3), p.NewDomain(4)
		idle.At(time.Millisecond, func() {})
		hops := 0
		var hop func(d, peer *Domain) func()
		hop = func(d, peer *Domain) func() {
			return func() {
				if hops++; hops == 6 {
					d.Stop()
					return
				}
				d.Send(peer.ID(), la, hop(peer, d))
			}
		}
		a.At(0, hop(a, b))
		c.At(100*time.Nanosecond, func() {})
		if err := p.RunUntilIdle(); err != ErrStopped {
			t.Fatalf("serial=%v: err = %v, want ErrStopped", serial, err)
		}
		if idle.Executed != 0 || idle.Now() != 0 {
			t.Fatalf("serial=%v: idle domain executed %d, clock %v; want 0, 0",
				serial, idle.Executed, idle.Now())
		}
		want := ParallelStats{Rounds: 6, Windows: 7, Inline: 5, Events: 7}
		if serial {
			want.Inline = 6
		}
		if st := p.Stats(); st != want {
			t.Fatalf("serial=%v: stats %+v, want %+v", serial, st, want)
		}
	}
}

// TestParallelTwoStopsOneRound: two domains stopping in the same round
// end Run after the round, each halted right after its own Stop, while
// the third active domain finishes its window; resuming fires the rest.
// Run reports the first error in domain-id order.
func TestParallelTwoStopsOneRound(t *testing.T) {
	p := NewParallel(time.Microsecond)
	a, b, c := p.NewDomain(1), p.NewDomain(2), p.NewDomain(3)
	b.At(100, b.Stop)
	b.At(200, func() {})
	c.At(100, c.Stop)
	c.At(300, func() {})
	a.At(100, func() {})
	a.At(900, func() {})
	if err := p.RunUntilIdle(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if a.Executed != 2 || b.Executed != 1 || c.Executed != 1 {
		t.Fatalf("executed %d %d %d, want 2 1 1", a.Executed, b.Executed, c.Executed)
	}
	if a.Now() != 900 || b.Now() != 100 || c.Now() != 100 {
		t.Fatalf("clocks %v %v %v, want 900ns 100ns 100ns", a.Now(), b.Now(), c.Now())
	}
	if err := p.RunUntilIdle(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if b.Executed != 2 || b.Now() != 200 || c.Executed != 2 || c.Now() != 300 {
		t.Fatalf("after resume: executed %d %d, clocks %v %v", b.Executed, c.Executed, b.Now(), c.Now())
	}

	// Both domains report the ErrStopped sentinel; which one Run
	// returns is fixed by domain id.
	e1, e2 := errors.New("one"), errors.New("two")
	if got := firstErr([]error{nil, e1, e2}); got != e1 {
		t.Fatalf("firstErr = %v, want the lower id's %v", got, e1)
	}
}
