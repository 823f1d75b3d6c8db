package healthd

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"lambdanic/internal/dispatch"
)

const iv = 10 * time.Millisecond

func cfg() Config {
	return Config{Interval: iv, SuspectAfter: 2, EvictAfter: 4}
}

// beat feeds n regular heartbeats starting at t=0 and returns the time
// of the last one.
func beat(d *Detector, worker string, n int) time.Duration {
	var last time.Duration
	for i := 0; i < n; i++ {
		last = time.Duration(i) * iv
		d.Observe(Heartbeat{Worker: worker, Seq: uint64(i + 1)}, last)
	}
	return last
}

func TestHeartbeatCodec(t *testing.T) {
	hb := Heartbeat{Worker: "w1", Seq: 42, Load: 7}
	got, err := DecodeHeartbeat(hb.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != hb {
		t.Fatalf("round trip = %+v, want %+v", got, hb)
	}
	if _, err := DecodeHeartbeat("not json"); err == nil {
		t.Fatal("bad heartbeat decoded")
	}
}

// TestDetectionWithinBound asserts the recovery bound from the issue:
// a silenced worker is declared Dead within EvictAfter+1 heartbeat
// intervals, with checks run once per interval.
func TestDetectionWithinBound(t *testing.T) {
	d := NewDetector(cfg())
	last := beat(d, "w1", 5)
	bound := time.Duration(d.Config().EvictAfter+1) * iv
	var died time.Duration
	for at := last; at <= last+bound; at += iv {
		for _, tr := range d.Check(at) {
			if tr.To == StatusDead {
				died = at
			}
		}
	}
	if died == 0 {
		t.Fatalf("worker not declared dead within %v of last heartbeat", bound)
	}
	if elapsed := died - last; elapsed > bound {
		t.Fatalf("death detected after %v, bound %v", elapsed, bound)
	}
}

func TestSuspectThenDeadThenRevive(t *testing.T) {
	d := NewDetector(cfg())
	last := beat(d, "w1", 3)
	if trs := d.Check(last + iv); len(trs) != 0 {
		t.Fatalf("one missed beat produced transitions %v", trs)
	}
	trs := d.Check(last + 2*iv + time.Millisecond)
	if len(trs) != 1 || trs[0].To != StatusSuspect {
		t.Fatalf("phi>2 transitions = %v, want suspect", trs)
	}
	trs = d.Check(last + 5*iv)
	if len(trs) != 1 || trs[0].From != StatusSuspect || trs[0].To != StatusDead {
		t.Fatalf("phi>4 transitions = %v, want suspect→dead", trs)
	}
	// Dead is sticky under further checks.
	if trs := d.Check(last + 10*iv); len(trs) != 0 {
		t.Fatalf("dead worker transitioned again: %v", trs)
	}
	if d.Status("w1") != StatusDead {
		t.Fatal("status not dead")
	}
	// A fresh heartbeat revives.
	tr := d.Observe(Heartbeat{Worker: "w1", Seq: 100}, last+11*iv)
	if tr == nil || tr.From != StatusDead || tr.To != StatusAlive {
		t.Fatalf("revival transition = %v, want dead→alive", tr)
	}
	if d.Status("w1") != StatusAlive {
		t.Fatal("revived worker not alive")
	}
}

func TestStaleSequenceIgnored(t *testing.T) {
	d := NewDetector(cfg())
	last := beat(d, "w1", 3)
	// Replaying an old beat at a much later time must not refresh
	// liveness.
	d.Observe(Heartbeat{Worker: "w1", Seq: 2}, last+3*iv)
	snap := d.Snapshot(last + 3*iv)
	if len(snap) != 1 || snap[0].LastSeen != last {
		t.Fatalf("stale heartbeat refreshed lastSeen: %+v", snap)
	}
}

func TestSnapshotAndForget(t *testing.T) {
	d := NewDetector(cfg())
	d.Observe(Heartbeat{Worker: "w2", Seq: 1, Load: 3}, 0)
	d.Observe(Heartbeat{Worker: "w1", Seq: 1, Load: 5}, 0)
	snap := d.Snapshot(iv)
	if len(snap) != 2 || snap[0].Worker != "w1" || snap[1].Worker != "w2" {
		t.Fatalf("snapshot order = %+v", snap)
	}
	if snap[0].Load != 5 || snap[0].Age != iv {
		t.Fatalf("snapshot fields = %+v", snap[0])
	}
	d.Forget("w1")
	if snap := d.Snapshot(iv); len(snap) != 1 || snap[0].Worker != "w2" {
		t.Fatalf("after forget: %+v", snap)
	}
	if d.Status("w1") != StatusDead {
		t.Fatal("forgotten worker should read dead")
	}
}

// TestDetectorDeterministic feeds two detectors the same timed sequence
// and requires identical transitions — healthd's half of the chaos
// repeatability guarantee.
func TestDetectorDeterministic(t *testing.T) {
	run := func() []Transition {
		d := NewDetector(cfg())
		var out []Transition
		for i := 0; i < 4; i++ {
			at := time.Duration(i) * iv
			d.Observe(Heartbeat{Worker: "w1", Seq: uint64(i + 1)}, at)
			d.Observe(Heartbeat{Worker: "w2", Seq: uint64(i + 1)}, at)
		}
		// w2 dies at 3*iv; keep w1 beating.
		for i := 4; i < 12; i++ {
			at := time.Duration(i) * iv
			d.Observe(Heartbeat{Worker: "w1", Seq: uint64(i + 1)}, at)
			out = append(out, d.Check(at)...)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("runs diverged:\n%v\n%v", a, b)
	}
	var dead bool
	for _, tr := range a {
		if tr.Worker == "w2" && tr.To == StatusDead {
			dead = true
		}
		if tr.Worker == "w1" {
			t.Fatalf("live worker transitioned: %v", tr)
		}
	}
	if !dead {
		t.Fatal("silenced worker never declared dead")
	}
}

func TestHeartbeaterBeatPauseStop(t *testing.T) {
	var mu sync.Mutex
	var got []Heartbeat
	h := NewHeartbeater("w1", time.Hour, func() int { return 9 }, func(hb Heartbeat) error {
		mu.Lock()
		got = append(got, hb)
		mu.Unlock()
		return nil
	})
	h.Beat()
	h.Beat()
	h.Pause(true)
	h.Beat()
	h.Pause(false)
	h.Beat()
	h.Stop() // never started: must not block
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("beats published = %d, want 3 (pause swallowed one)", len(got))
	}
	for i, hb := range got {
		if hb.Worker != "w1" || hb.Load != 9 || hb.Seq != uint64(i+1) {
			t.Fatalf("beat %d = %+v", i, hb)
		}
	}
}

func TestHeartbeaterLoop(t *testing.T) {
	ch := make(chan Heartbeat, 16)
	h := NewHeartbeater("w1", time.Millisecond, nil, func(hb Heartbeat) error {
		select {
		case ch <- hb:
		default:
		}
		return nil
	})
	h.Start()
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("no heartbeat from started loop")
	}
	h.Stop()
}

func TestDaemonPoll(t *testing.T) {
	var mu sync.Mutex
	now := time.Duration(0)
	seq := uint64(0)
	silent := false
	source := func() []Heartbeat {
		mu.Lock()
		defer mu.Unlock()
		if silent {
			return nil
		}
		seq++
		return []Heartbeat{{Worker: "w1", Seq: seq}}
	}
	d := NewDaemon(NewDetector(cfg()), source, func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	var seen []Transition
	d.OnTransition = func(tr Transition) { seen = append(seen, tr) }
	for i := 0; i < 4; i++ {
		d.Poll()
		mu.Lock()
		now += iv
		mu.Unlock()
	}
	mu.Lock()
	silent = true
	mu.Unlock()
	for i := 0; i < 8; i++ {
		d.Poll()
		mu.Lock()
		now += iv
		mu.Unlock()
	}
	if d.Detector().Status("w1") != StatusDead {
		t.Fatal("silent worker not dead after polls")
	}
	var died bool
	for _, tr := range seen {
		if tr.To == StatusDead {
			died = true
		}
	}
	if !died {
		t.Fatal("OnTransition never saw the death")
	}
	d.Stop() // never started: must not block
}

// TestLoadsAliveOnlyInNameOrder: the rebalancer's load report carries
// each Alive worker's smoothed load, ordered by name; a silent worker
// drops out once Check stops calling it Alive.
func TestLoadsAliveOnlyInNameOrder(t *testing.T) {
	d := NewDetector(Config{Interval: iv, SuspectAfter: 2, EvictAfter: 4, LoadAlpha: 1})
	for i, w := range []string{"w3", "w1", "w2"} {
		d.Observe(Heartbeat{Worker: w, Seq: 1, Load: i + 1}, 0)
	}
	for seq := uint64(2); seq <= 4; seq++ {
		at := time.Duration(seq-1) * iv
		d.Observe(Heartbeat{Worker: "w1", Seq: seq, Load: 5}, at)
		d.Observe(Heartbeat{Worker: "w3", Seq: seq, Load: 7}, at)
	}
	want := []dispatch.Load{{Worker: "w1", Load: 5}, {Worker: "w2", Load: 3}, {Worker: "w3", Load: 7}}
	if got := d.Loads(3 * iv); !reflect.DeepEqual(got, want) {
		t.Fatalf("Loads = %v, want %v", got, want)
	}
	d.Check(4 * iv) // w2 silent since t=0: no longer Alive
	if got := d.Loads(4 * iv); !reflect.DeepEqual(got, []dispatch.Load{want[0], want[2]}) {
		t.Fatalf("Loads after w2 went silent = %v, want w1 and w3 only", got)
	}
}
