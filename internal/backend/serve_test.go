package backend

import (
	"testing"

	"lambdanic/internal/cluster"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/workloads"
)

// server is the device side both backends expose.
type server interface {
	Call(req Request, done func(Result))
	Serve(req Request, done func(Result, sim.Time))
}

// viaCall runs req through the shared-clock entry on a fresh simulation
// and returns the completion time and event count.
func viaCall(t *testing.T, b server, s *sim.Sim, req Request) (sim.Time, uint64) {
	t.Helper()
	var at sim.Time
	b.Call(req, func(r Result) {
		if r.Err != nil {
			t.Fatalf("Call: %v", r.Err)
		}
		at = s.Now()
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	return at, s.Executed
}

// viaServe runs req through Serve with both wire hops modelled by hand,
// one scheduled event each, as a parallel-domain caller does.
func viaServe(t *testing.T, b server, s *sim.Sim, link cluster.LinkConfig, req Request) (sim.Time, uint64) {
	t.Helper()
	var at sim.Time
	s.Schedule(link.OneWay(len(req.Payload)), func() {
		b.Serve(req, func(r Result, back sim.Time) {
			if r.Err != nil {
				t.Fatalf("Serve: %v", r.Err)
			}
			s.Schedule(back, func() { at = s.Now() })
		})
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	return at, s.Executed
}

func TestServeMatchesCall(t *testing.T) {
	tb := cluster.Default()
	web := workloads.WebServer()
	req := Request{ID: web.ID, Payload: web.MakeRequest(0)}
	if n := workloads.Packets(len(req.Payload)); n != 1 {
		t.Fatalf("web request is %d packets, want 1", n)
	}
	backends := map[string]func(s *sim.Sim) server{
		"lambda-nic": func(s *sim.Sim) server { return newNICBackend(t, s) },
		"bare-metal": func(s *sim.Sim) server {
			h, err := NewBareMetalQuiet(s, tb)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Deploy(smallSet()); err != nil {
				t.Fatal(err)
			}
			return h
		},
	}
	for name, build := range backends {
		s1, s2 := sim.New(1), sim.New(1)
		callAt, callEvents := viaCall(t, build(s1), s1, req)
		serveAt, serveEvents := viaServe(t, build(s2), s2, tb.Link, req)
		if callAt == 0 || callAt != serveAt {
			t.Errorf("%s: completion Call %v vs Serve %v", name, callAt, serveAt)
		}
		if callEvents != serveEvents {
			t.Errorf("%s: events Call %d vs Serve %d", name, callEvents, serveEvents)
		}
	}
}

func TestFlowKeyWarmsBothPaths(t *testing.T) {
	tb := cluster.Default()
	tb.NIC.Islands, tb.NIC.CoresPerIsland = 1, 1 // one core: the flow cannot move
	web := workloads.WebServer()
	req := Request{ID: web.ID, Payload: web.MakeRequest(0), Flow: 42}
	for _, path := range []string{"call", "serve"} {
		s := sim.New(1)
		b, err := NewLambdaNICWithConfig(s, tb, nicsim.Config{WarmFlows: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Deploy([]*workloads.Workload{web}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if path == "call" {
				viaCall(t, b, s, req)
			} else {
				viaServe(t, b, s, tb.Link, req)
			}
		}
		st := b.NIC().Stats()
		if st.WarmMisses != 1 || st.WarmHits != 1 {
			t.Errorf("%s: warm hits %d misses %d, want 1 and 1", path, st.WarmHits, st.WarmMisses)
		}
	}
}
