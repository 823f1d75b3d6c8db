package gateway

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdanic/internal/dispatch"
	"lambdanic/internal/transport"
)

// TestGatewayRoutingRaces hammers handle with concurrent SetRoute and
// EvictWorker updates. Run under -race: the forward path must read one
// immutable route snapshot per request, so an update can never change
// the worker set between the attempt-count read and worker selection.
func TestGatewayRoutingRaces(t *testing.T) {
	n := transport.NewMemNetwork(21)
	echoWorker(t, n, "w1")
	echoWorker(t, n, "w2")
	echoWorker(t, n, "w3")
	gw := newGateway(t, n, WithUpstreamTimeout(200*time.Millisecond))
	all := []net.Addr{
		transport.MemAddr("w1"), transport.MemAddr("w2"), transport.MemAddr("w3"),
	}
	gw.SetRoute(1, all)

	cli := testClient(t, n)
	stop := make(chan struct{})
	var mutations sync.WaitGroup
	mutations.Add(2)
	go func() {
		defer mutations.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Shrink and regrow the worker set, never leaving it empty.
			gw.SetRoute(1, all[:1+i%len(all)])
		}
	}()
	go func() {
		defer mutations.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			gw.EvictWorker(all[i%len(all)])
			gw.SetRoute(1, all)
		}
	}()

	var ok atomic.Uint64
	var callers sync.WaitGroup
	for c := 0; c < 4; c++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			ctx := context.Background()
			for i := 0; i < 50; i++ {
				// Calls may fail when an eviction drains them mid-flight;
				// the test's assertion is -race cleanliness plus liveness.
				if _, err := cli.Call(ctx, transport.MemAddr("gw"), 1, []byte("x")); err == nil {
					ok.Add(1)
				}
			}
		}()
	}
	callers.Wait()
	close(stop)
	mutations.Wait()
	if ok.Load() == 0 {
		t.Error("no request succeeded under routing churn")
	}
}

// TestGatewayFlowSpreadConcurrent: with 4 workers and many concurrent
// client flows, each flow sticks to exactly one worker while the flows
// collectively cover several workers — affinity without starvation.
func TestGatewayFlowSpreadConcurrent(t *testing.T) {
	n := transport.NewMemNetwork(23)
	names := []string{"w1", "w2", "w3", "w4"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n)
	gw.SetRoute(1, workers)

	const clients = 24
	const perClient = 20
	perFlow := make([]map[string]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cli := namedClient(t, n, fmt.Sprintf("cc%02d", c))
		wg.Add(1)
		go func(c int, cli *transport.Endpoint) {
			defer wg.Done()
			mine := map[string]int{}
			ctx := context.Background()
			for i := 0; i < perClient; i++ {
				resp, err := cli.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
				if err != nil {
					t.Error(err)
					return
				}
				name, _, _ := strings.Cut(string(resp), ":")
				mine[name]++
			}
			perFlow[c] = mine
		}(c, cli)
	}
	wg.Wait()

	covered := map[string]bool{}
	for c, mine := range perFlow {
		if len(mine) != 1 {
			t.Errorf("client %d scattered across %d workers under concurrency: %v", c, len(mine), mine)
		}
		for name := range mine {
			covered[name] = true
		}
	}
	if len(covered) < 3 {
		t.Errorf("%d flows covered only %d of 4 workers", clients, len(covered))
	}
}

// TestGatewayEvictionNeverRoutesToEvicted: a request whose handle
// snapshot is read after EvictWorker returns must never reach the
// evicted worker, even with traffic in flight during the eviction.
func TestGatewayEvictionNeverRoutesToEvicted(t *testing.T) {
	n := transport.NewMemNetwork(37)
	names := []string{"w1", "w2", "w3"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	gw := newGateway(t, n, WithUpstreamTimeout(200*time.Millisecond))
	gw.SetRoute(1, workers)

	const victim = "w2"
	var evicted atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		cli := namedClient(t, n, fmt.Sprintf("ev%02d", c))
		wg.Add(1)
		go func(cli *transport.Endpoint) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 40; i++ {
				// Sample the eviction flag BEFORE the call: if the eviction
				// completed before this request started, the new route
				// snapshot is already published and the victim must be
				// unreachable. Calls racing the eviction (flag false) may
				// still legitimately land on it.
				sawEvicted := evicted.Load()
				resp, err := cli.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
				if err != nil {
					continue // aborted mid-eviction drain: fine
				}
				name, _, _ := strings.Cut(string(resp), ":")
				if sawEvicted && name == victim {
					t.Errorf("request started after eviction served by evicted worker %s", victim)
				}
			}
		}(cli)
	}
	time.Sleep(10 * time.Millisecond)
	gw.EvictWorker(transport.MemAddr(victim))
	evicted.Store(true)
	wg.Wait()
}

// TestGatewayPinsStableUnderRouteChurn: standing migrations (pins) for
// one workload survive concurrent SetRoute traffic on other workloads
// and evictions of unrelated workers, while requests keep honoring the
// pin. Extends the route-update race coverage to the pinned-flow path.
func TestGatewayPinsStableUnderRouteChurn(t *testing.T) {
	n := transport.NewMemNetwork(41)
	names := []string{"w1", "w2", "w3"}
	workers := make([]net.Addr, len(names))
	for i, name := range names {
		echoWorker(t, n, name)
		workers[i] = transport.MemAddr(name)
	}
	echoWorker(t, n, "other")
	gw := newGateway(t, n, WithUpstreamTimeout(200*time.Millisecond))
	gw.SetRoute(1, workers)
	gw.SetRoute(2, []net.Addr{transport.MemAddr("other")})

	// Pin the client's flow onto a worker that is NOT its ring owner.
	cli := testClient(t, n)
	wr := gw.routes.Load().m[1]
	flow := dispatch.FlowKey("client", 1)
	owner := wr.Owner(flow)
	target := (owner + 1) % len(names)
	applied := applyPlan(gw, 1, dispatch.Migration{Flow: flow, From: names[owner], To: names[target]})
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
	if got := gw.PinnedFlows(); got != 1 {
		t.Fatalf("PinnedFlows = %d, want 1", got)
	}

	// Churn: rewrite workload 2's route and evict+restore a worker that
	// is neither the pin target nor the ring owner of the pinned flow.
	bystander := -1
	for i := range names {
		if i != owner && i != target {
			bystander = i
		}
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			gw.SetRoute(2, []net.Addr{transport.MemAddr("other")})
		}
	}()
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			gw.EvictWorker(workers[bystander])
			gw.SetRoute(1, workers)
		}
	}()

	// The pinned flow must keep landing on the pin target... except in
	// windows where SetRoute(1) legitimately cleared the pin (placement
	// rewrite drops standing migrations). Since the churn goroutine
	// rewrites workload 1, accept either the pin target or the ring
	// owner — never anything else, and never an error-free scatter.
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		resp, err := cli.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
		if err != nil {
			continue // eviction drain race: fine
		}
		got, _, _ := strings.Cut(string(resp), ":")
		if got != names[target] && got != names[owner] {
			t.Fatalf("pinned flow served by %s, want %s (pin) or %s (ring owner)", got, names[target], names[owner])
		}
	}
	close(stop)
	churn.Wait()

	// With the churn stopped, re-apply the pin and verify it holds
	// exactly while workload 2 is rewritten concurrently (untouched
	// entries are shared, so the pin cannot move).
	gw.SetRoute(1, workers)
	applyPlan(gw, 1, dispatch.Migration{Flow: flow, From: names[owner], To: names[target]})
	stop2 := make(chan struct{})
	var churn2 sync.WaitGroup
	churn2.Add(1)
	go func() {
		defer churn2.Done()
		for {
			select {
			case <-stop2:
				return
			default:
			}
			gw.SetRoute(2, []net.Addr{transport.MemAddr("other")})
		}
	}()
	for i := 0; i < 40; i++ {
		resp, err := cli.Call(ctx, transport.MemAddr("gw"), 1, []byte("x"))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		got, _, _ := strings.Cut(string(resp), ":")
		if got != names[target] {
			t.Fatalf("pin not honored under unrelated churn: served by %s, want %s", got, names[target])
		}
	}
	close(stop2)
	churn2.Wait()
	if got := gw.PinnedFlows(); got != 1 {
		t.Fatalf("PinnedFlows = %d after unrelated churn, want 1", got)
	}
}
