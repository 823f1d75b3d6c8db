package dispatch

import "testing"

// pinnedTable returns a table over members(n) with flow pinned one
// member past its ring owner.
func pinnedTable(t testing.TB, n int, flow uint64) (*Table, int) {
	t.Helper()
	tb := NewTable(members(n), 11)
	owner := tb.Owner(flow)
	target := (owner + 1) % n
	next, applied := tb.Apply([]Migration{{Flow: flow, From: tb.Members()[owner], To: tb.Members()[target]}})
	if applied != 1 || next.Owner(flow) != target {
		t.Fatalf("pin: applied %d, owner %d, want 1, %d", applied, next.Owner(flow), target)
	}
	return next, target
}

func TestTableOwnerFollowsRingThenPin(t *testing.T) {
	m := members(6)
	tb := NewTable(m, 11)
	ring := NewRing(m, 11)
	for f := uint64(1); f < 500; f++ {
		if tb.Owner(f) != ring.Pick(f) {
			t.Fatalf("unpinned flow %d: owner %d, ring %d", f, tb.Owner(f), ring.Pick(f))
		}
	}
	pinned, target := pinnedTable(t, 6, 42)
	if pinned.Owner(42) != target || pinned.Pinned() != 1 {
		t.Fatalf("pin not honored: owner %d, pinned %d", pinned.Owner(42), pinned.Pinned())
	}
	if NewTable(nil, 1).Owner(42) != -1 {
		t.Fatal("empty table must return -1")
	}
}

func TestTableFailoverSkipsOwner(t *testing.T) {
	tb := NewTable(members(5), 3)
	for f := uint64(0); f < 200; f++ {
		owner := tb.Owner(f)
		order := tb.Failover(f, owner)
		if len(order) != 4 {
			t.Fatalf("flow %d: %d failover targets, want 4", f, len(order))
		}
		succ := tb.ring.Successors(f, 5)
		for i, w := range order {
			if w == owner || w != succ[i+1] {
				t.Fatalf("flow %d: failover %v, ring successors %v", f, order, succ)
			}
		}
	}
}

// Apply is copy-on-write: the receiver's pins never change.
func TestTableApplyCopyOnWrite(t *testing.T) {
	tb, target := pinnedTable(t, 4, 42)
	owner := tb.ring.Pick(7)
	to := (owner + 2) % 4
	next, applied := tb.Apply([]Migration{
		{Flow: 42, To: tb.Members()[tb.ring.Pick(42)]}, // unpin
		{Flow: 7, To: tb.Members()[to]},                // new pin
	})
	if applied != 2 || next.Pinned() != 1 || next.Owner(7) != to {
		t.Fatalf("next: applied %d, pinned %d, owner(7) %d", applied, next.Pinned(), next.Owner(7))
	}
	if tb.Pinned() != 1 || tb.Owner(42) != target || tb.Owner(7) != owner {
		t.Fatalf("receiver changed: pinned %d, owner(42) %d, owner(7) %d", tb.Pinned(), tb.Owner(42), tb.Owner(7))
	}
}

func TestTableApplyCountsOnlyRoutingChanges(t *testing.T) {
	tb := NewTable(members(4), 11)
	ringOwner := tb.Members()[tb.Owner(42)]
	// Moving an unpinned flow to its ring owner changes nothing.
	if next, applied := tb.Apply([]Migration{{Flow: 42, To: ringOwner}}); applied != 0 || next != tb {
		t.Fatalf("no-op unpin: applied %d, new table %v", applied, next != tb)
	}
	pinned, target := pinnedTable(t, 4, 42)
	// Re-pinning to the current target and moving to a non-member are
	// skipped.
	next, applied := pinned.Apply([]Migration{
		{Flow: 42, To: pinned.Members()[target]},
		{Flow: 42, To: "not-a-member"},
	})
	if applied != 0 || next != pinned {
		t.Fatalf("skipped moves: applied %d, new table %v", applied, next != pinned)
	}
	// Moving a pinned flow home drops the pin and counts.
	next, applied = pinned.Apply([]Migration{{Flow: 42, To: ringOwner}})
	if applied != 1 || next.Pinned() != 0 || next.Members()[next.Owner(42)] != ringOwner {
		t.Fatalf("unpin: applied %d, pinned %d", applied, next.Pinned())
	}
}

func TestTableWithoutRemapsAndDropsPins(t *testing.T) {
	m := members(4)
	tb := NewTable(m, 11)
	// Pin flow 1 onto member 3 and flow 2 onto member 1 (off their ring
	// owners), then remove member 1.
	var plan []Migration
	for f, to := range map[uint64]int{1: 3, 2: 1} {
		if tb.Owner(f) == to {
			t.Fatalf("flow %d already owned by %d; pick another flow", f, to)
		}
		plan = append(plan, Migration{Flow: f, To: m[to]})
	}
	tb, applied := tb.Apply(plan)
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	after := tb.Without(m[1])
	if got := after.Members(); len(got) != 3 || got[0] != m[0] || got[1] != m[2] || got[2] != m[3] {
		t.Fatalf("members = %v", got)
	}
	if after.Pinned() != 1 || after.Members()[after.Owner(1)] != m[3] {
		t.Fatalf("surviving pin not remapped: pinned %d, owner(1) %s", after.Pinned(), after.Members()[after.Owner(1)])
	}
	if got := after.Members()[after.Owner(2)]; got != after.Members()[after.ring.Pick(2)] {
		t.Fatalf("pin to removed member kept: flow 2 on %s", got)
	}
	if tb.Pinned() != 2 || len(tb.Members()) != 4 {
		t.Fatal("Without changed the receiver")
	}
}

func TestTableRebalanceMovesElephantAndDecays(t *testing.T) {
	m := members(3)
	tb := NewTable(m, 11)
	var fs FlowStats
	const elephant = 42
	for i := 0; i < 100; i++ {
		fs.Observe(elephant)
	}
	fs.Observe(43)
	hot := tb.Owner(elephant)
	loads := make([]Load, len(m))
	for i, name := range m {
		loads[i] = Load{Worker: name, Load: 1}
	}
	loads[hot].Load = 100
	next, applied := tb.Rebalance(&fs, loads, 4, 1.5)
	if applied == 0 || next.Owner(elephant) == hot {
		t.Fatalf("elephant not moved off %d: applied %d, owner %d", hot, applied, next.Owner(elephant))
	}
	if tb.Pinned() != 0 || tb.Owner(elephant) != hot {
		t.Fatal("Rebalance changed the receiver")
	}
	if top := fs.TopK(4); len(top) != 1 || top[0].Flow != elephant || top[0].Rate != 50 {
		t.Fatalf("window not rolled: %+v", top)
	}
}

// TestRouteOwnerZeroAlloc guards the gateway's happy path: observing a
// flow and looking up its owner costs no allocation, pinned or not.
func TestRouteOwnerZeroAlloc(t *testing.T) {
	tb, _ := pinnedTable(t, 8, 42)
	var fs FlowStats
	flows := []uint64{42, FlowKey("10.0.0.1:9000", 1), FlowKey("10.0.0.2:9000", 1)}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, f := range flows {
			fs.Observe(f)
			_ = tb.Owner(f)
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe+Owner allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkRouteOwner is the per-request routing cost in the gateway:
// one sketch observation plus one owner lookup.
func BenchmarkRouteOwner(b *testing.B) {
	tb, _ := pinnedTable(b, 16, 42)
	var fs FlowStats
	flows := make([]uint64, 256)
	for i := range flows {
		flows[i] = FlowKey("10.0.0.1", uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flows[i&(len(flows)-1)]
		fs.Observe(f)
		_ = tb.Owner(f)
	}
}
