package gateway

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"lambdanic/internal/dispatch"
	"lambdanic/internal/transport"
)

// applyPlan installs plan on workload id's route through the same
// copy-on-write step RebalanceOnce uses.
func applyPlan(gw *Gateway, id uint32, plan ...dispatch.Migration) int {
	return gw.stepRoute(id, func(wr *workloadRoute) (*dispatch.Table, int) { return wr.Apply(plan) })
}

// TestRebalancerMigratesElephant: an elephant flow on an overloaded
// worker is migrated to an underloaded one; subsequent requests honor
// the new pin; mice stay put.
func TestRebalancerMigratesElephant(t *testing.T) {
	n := transport.NewMemNetwork(43)
	names := []string{"w1", "w2", "w3"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n)
	gw.SetRoute(1, workers)

	// The elephant: one hot client flow.
	hot := testClient(t, n)
	ctx := context.Background()
	var before string
	for i := 0; i < 50; i++ {
		resp, err := hot.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		before, _, _ = strings.Cut(string(resp), ":")
	}

	// Load report: the elephant's current owner is overloaded.
	loads := func() []dispatch.Load {
		out := make([]dispatch.Load, len(names))
		for i, name := range names {
			load := 1.0
			if name == before {
				load = 100
			}
			out[i] = dispatch.Load{Worker: name, Load: load}
		}
		return out
	}
	applied := gw.RebalanceOnce(RebalanceConfig{TopK: 4, ImbalanceRatio: 1.5, Loads: loads})
	if applied == 0 {
		t.Fatal("rebalance applied no migrations")
	}
	if gw.Migrations() == 0 || gw.PinnedFlows() == 0 {
		t.Fatalf("Migrations = %d, PinnedFlows = %d", gw.Migrations(), gw.PinnedFlows())
	}

	resp, err := hot.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	after, _, _ := strings.Cut(string(resp), ":")
	if after == before {
		t.Fatalf("elephant still on overloaded worker %s after migration", after)
	}
}

// TestRebalancerBalancedFleetNoops: with even load, nothing migrates.
func TestRebalancerBalancedFleetNoops(t *testing.T) {
	n := transport.NewMemNetwork(47)
	names := []string{"w1", "w2"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n)
	gw.SetRoute(1, workers)
	cli := testClient(t, n)
	for i := 0; i < 30; i++ {
		if _, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	loads := func() []dispatch.Load {
		return []dispatch.Load{{Worker: "w1", Load: 5}, {Worker: "w2", Load: 5}}
	}
	if applied := gw.RebalanceOnce(RebalanceConfig{Loads: loads}); applied != 0 {
		t.Fatalf("balanced fleet migrated %d flows", applied)
	}
	if gw.PinnedFlows() != 0 {
		t.Fatalf("PinnedFlows = %d, want 0", gw.PinnedFlows())
	}
}

// TestRebalanceHonorsExplicitRatioOne: ImbalanceRatio 1 is a setting,
// not "unset" — a worker at 1.2× the mean load is overloaded and sheds
// its elephant.
func TestRebalanceHonorsExplicitRatioOne(t *testing.T) {
	n := transport.NewMemNetwork(67)
	gw := newGateway(t, n)
	names := []string{"w1", "w2", "w3"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		workers[i] = transport.MemAddr(name)
	}
	gw.SetRoute(1, workers)
	wr := gw.routes.Load().m[1]
	flow := dispatch.FlowKey("client", 1)
	for i := 0; i < 50; i++ {
		wr.Observe(flow)
	}
	hot := names[wr.Owner(flow)]
	loads := func() []dispatch.Load {
		out := make([]dispatch.Load, len(names))
		for i, name := range names {
			load := 9.0
			if name == hot {
				load = 12 // mean 10: the owner runs at 1.2x
			}
			out[i] = dispatch.Load{Worker: name, Load: load}
		}
		return out
	}
	if applied := gw.RebalanceOnce(RebalanceConfig{TopK: 4, ImbalanceRatio: 1, Loads: loads}); applied != 1 {
		t.Fatalf("applied = %d, want 1 (elephant off the 1.2x worker)", applied)
	}
	if got := names[gw.routes.Load().m[1].Owner(flow)]; got == hot {
		t.Fatalf("elephant still on %s", got)
	}
}

// TestEvictDropsPinsToEvictedWorker: a pin whose target is evicted is
// dropped (the flow reverts to its ring owner); pins to survivors are
// remapped and keep working.
func TestEvictDropsPinsToEvictedWorker(t *testing.T) {
	n := transport.NewMemNetwork(53)
	names := []string{"w1", "w2", "w3"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n)
	gw.SetRoute(1, workers)

	wr := gw.routes.Load().m[1]
	flow := dispatch.FlowKey("client", 1)
	owner := wr.Owner(flow)
	target := (owner + 1) % len(names)
	applyPlan(gw, 1, dispatch.Migration{Flow: flow, From: names[owner], To: names[target]})
	if gw.PinnedFlows() != 1 {
		t.Fatalf("PinnedFlows = %d, want 1", gw.PinnedFlows())
	}

	gw.EvictWorker(workers[target])
	if gw.PinnedFlows() != 0 {
		t.Fatalf("pin to evicted worker survived: PinnedFlows = %d", gw.PinnedFlows())
	}
	// The flow now routes by ring over the survivors — never to the
	// evicted target.
	cli := testClient(t, n)
	resp, err := cli.Call(context.Background(), transport.MemAddr("gw"), 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := strings.Cut(string(resp), ":")
	if got == names[target] {
		t.Fatalf("flow routed to evicted worker %s", got)
	}
}

// TestStartRebalancerLifecycle: the background loop runs, migrates
// under skew, and stops cleanly; a second start is a no-op.
func TestStartRebalancerLifecycle(t *testing.T) {
	n := transport.NewMemNetwork(59)
	names := []string{"w1", "w2"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n)
	gw.SetRoute(1, workers)

	hot := testClient(t, n)
	ctx := context.Background()
	var ownerName string
	for i := 0; i < 40; i++ {
		resp, err := hot.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		ownerName, _, _ = strings.Cut(string(resp), ":")
	}
	loads := func() []dispatch.Load {
		out := make([]dispatch.Load, len(names))
		for i, name := range names {
			load := 1.0
			if name == ownerName {
				load = 50
			}
			out[i] = dispatch.Load{Worker: name, Load: load}
		}
		return out
	}
	stop := gw.StartRebalancer(RebalanceConfig{Every: 5 * time.Millisecond, Loads: loads})
	stop2 := gw.StartRebalancer(RebalanceConfig{Every: time.Hour})
	stop2() // no-op: first loop keeps running
	deadline := time.Now().Add(2 * time.Second)
	for gw.Migrations() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if gw.Migrations() == 0 {
		t.Fatal("background rebalancer never migrated the elephant")
	}
}

// TestLoadsForFallsBackToInflight: workers missing from the load report
// use the gateway's own in-flight counts.
func TestLoadsForFallsBackToInflight(t *testing.T) {
	n := transport.NewMemNetwork(61)
	gw := newGateway(t, n)
	addrs := []net.Addr{transport.MemAddr("a"), transport.MemAddr("b")}
	gw.SetRoute(1, addrs)
	gw.inflightFor("a").Add(3)
	wr := gw.routes.Load().m[1]
	loads := gw.loadsFor(wr, []dispatch.Load{{Worker: "b", Load: 9}})
	byName := map[string]float64{}
	for _, l := range loads {
		byName[l.Worker] = l.Load
	}
	if byName["a"] != 3 || byName["b"] != 9 {
		t.Fatalf("loads = %v, want a:3 (inflight fallback), b:9 (report)", byName)
	}
}
