package sim

import (
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for e := 0; e < 1000; e++ {
			s.Schedule(time.Duration(e)*time.Nanosecond, func() {})
		}
		if err := s.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1000, "events/iter")
}

func BenchmarkNestedEventChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(1)
		depth := 0
		var next func()
		next = func() {
			depth++
			if depth < 1000 {
				s.Schedule(time.Nanosecond, next)
			}
		}
		s.Schedule(0, next)
		if err := s.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSteady is the scheduling microbenchmark shape the simbench
// experiment also uses: a large steady-state population of outstanding
// events, each firing and rescheduling itself with a NIC-like delay
// mixture (mostly µs-scale service events, some wire/RDMA delays, a
// trickle of far-band control timers) — the regime where heap O(log n)
// and per-event allocation hurt most.
func benchSteady(b *testing.B, kind KernelKind, pooled bool, outstanding int) {
	b.ReportAllocs()
	s := NewWithKernel(1, kind)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		var d Time
		switch fired % 10 {
		case 0:
			d = 10 * time.Millisecond // control plane: far band
		case 1, 2:
			d = Time(40+fired%20) * time.Microsecond // wire/RDMA
		default:
			d = Time(1000+fired%9000) * time.Nanosecond // NIC service
		}
		if pooled {
			s.After(d, tick)
		} else {
			s.Schedule(d, tick)
		}
	}
	for e := 0; e < outstanding; e++ {
		s.Schedule(Time(e)*time.Microsecond, tick)
	}
	b.ResetTimer()
	for fired < b.N {
		if !s.Step() {
			b.Fatal("queue drained")
		}
	}
}

func BenchmarkSteadyHeap(b *testing.B)         { benchSteady(b, KernelHeap, false, 32768) }
func BenchmarkSteadyLadder(b *testing.B)       { benchSteady(b, KernelLadder, false, 32768) }
func BenchmarkSteadyLadderPooled(b *testing.B) { benchSteady(b, KernelLadder, true, 32768) }
func BenchmarkSteadyHeapPooled(b *testing.B)   { benchSteady(b, KernelHeap, true, 32768) }

// BenchmarkParallelSparseRack is the rack scenarios' parallel shape:
// one control domain plus 8 device domains at the rack's 450ns link
// lookahead (OneWay(0)). The control domain issues a request every 2µs
// round-robin over the devices; each device serves it for 1–5µs and
// replies. Few events fall in each barrier round, so the cost per round
// — peeks, rewinds, handoffs — is what this measures. One op is one
// request's round trip.
func BenchmarkParallelSparseRack(b *testing.B) {
	const la = 450 * time.Nanosecond
	p := NewParallel(la)
	ctrl := p.NewDomain(1)
	devs := make([]*Domain, 8)
	for i := range devs {
		devs[i] = p.NewDomain(int64(i + 2))
	}
	replies := 0
	reply := func() { replies++ }
	issued := 0
	var issue func()
	issue = func() {
		d := devs[issued%len(devs)]
		issued++
		ctrl.Send(d.ID(), la, func() {
			d.After(Time(1000+d.Rand().Intn(4000)), func() { d.Send(ctrl.ID(), la, reply) })
		})
		if issued < b.N {
			ctrl.After(2*time.Microsecond, issue)
		}
	}
	ctrl.At(0, issue)
	b.ReportAllocs()
	b.ResetTimer()
	if err := p.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if replies != b.N {
		b.Fatalf("%d replies for %d requests", replies, b.N)
	}
	st := p.Stats()
	b.ReportMetric(float64(st.Rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(st.Windows)/float64(st.Rounds), "windows/round")
}
