package dispatch

import (
	"fmt"
	"testing"
)

func TestFlowKeyStable(t *testing.T) {
	a := FlowKey("10.0.0.1:9000", 7)
	if a != FlowKey("10.0.0.1:9000", 7) {
		t.Fatal("FlowKey not stable")
	}
	if a == FlowKey("10.0.0.1:9000", 8) {
		t.Fatal("workload not mixed into flow key")
	}
	if a == FlowKey("10.0.0.2:9000", 7) {
		t.Fatal("source not mixed into flow key")
	}
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("nic-%02d", i)
	}
	return out
}

func TestRingDeterministicAndSeedSensitive(t *testing.T) {
	m := members(8)
	r1 := NewRing(m, 42)
	r2 := NewRing(m, 42)
	r3 := NewRing(m, 43)
	same, diff := 0, 0
	for f := uint64(0); f < 1000; f++ {
		if r1.Pick(f) != r2.Pick(f) {
			t.Fatalf("same seed, different pick for flow %d", f)
		}
		if r1.Pick(f) == r3.Pick(f) {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical rings")
	}
	_ = same
}

func TestRingOrderIndependent(t *testing.T) {
	m := members(6)
	rev := make([]string, len(m))
	for i, s := range m {
		rev[len(m)-1-i] = s
	}
	r1 := NewRing(m, 7)
	r2 := NewRing(rev, 7)
	for f := uint64(0); f < 500; f++ {
		if r1.Members()[r1.Pick(f)] != r2.Members()[r2.Pick(f)] {
			t.Fatalf("member order changed placement for flow %d", f)
		}
	}
}

func TestRingSpread(t *testing.T) {
	m := members(8)
	r := NewRing(m, 1)
	counts := make([]int, len(m))
	const flows = 20000
	for f := uint64(0); f < flows; f++ {
		counts[r.Pick(FlowKey(fmt.Sprintf("c%d", f), 1))]++
	}
	want := flows / len(m)
	for i, c := range counts {
		if c < want/3 || c > want*3 {
			t.Fatalf("member %d got %d of %d flows (want near %d)", i, c, flows, want)
		}
	}
}

// Removing one member must only move flows that were pinned to it.
func TestRingStabilityOnMemberRemoval(t *testing.T) {
	m := members(8)
	full := NewRing(m, 9)
	without := NewRing(append(append([]string{}, m[:3]...), m[4:]...), 9)
	moved := 0
	for f := uint64(0); f < 5000; f++ {
		before := full.Members()[full.Pick(f)]
		after := without.Members()[without.Pick(f)]
		if before == m[3] {
			if after == m[3] {
				t.Fatal("flow still pinned to removed member")
			}
			continue
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d flows not pinned to the removed member moved", moved)
	}
}

func TestRingSuccessorsDistinctAndStartAtOwner(t *testing.T) {
	m := members(5)
	r := NewRing(m, 3)
	for f := uint64(0); f < 200; f++ {
		succ := r.Successors(f, len(m))
		if len(succ) != len(m) {
			t.Fatalf("want %d successors, got %d", len(m), len(succ))
		}
		if succ[0] != r.Pick(f) {
			t.Fatalf("successor list does not start at owner")
		}
		seen := map[int]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatal("duplicate successor")
			}
			seen[s] = true
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 1)
	if r.Pick(123) != -1 {
		t.Fatal("empty ring must return -1")
	}
	if r.Successors(123, 3) != nil {
		t.Fatal("empty ring must return nil successors")
	}
}

func TestFlowStatsObserveAndTopK(t *testing.T) {
	var fs FlowStats
	for i := 0; i < 100; i++ {
		fs.Observe(7)
	}
	for i := 0; i < 10; i++ {
		fs.Observe(8)
	}
	fs.Observe(9)
	top := fs.TopK(2)
	if len(top) != 2 || top[0].Flow != 7 || top[1].Flow != 8 {
		t.Fatalf("TopK = %+v", top)
	}
	if top[0].Rate != 100 {
		t.Fatalf("rate = %d, want 100", top[0].Rate)
	}
}

func TestFlowStatsDecayReclaims(t *testing.T) {
	var fs FlowStats
	fs.Observe(5)
	fs.Decay()
	if got := fs.TopK(8); len(got) != 0 {
		t.Fatalf("one-shot flow survived decay: %+v", got)
	}
	// An elephant decays but survives.
	for i := 0; i < 64; i++ {
		fs.Observe(6)
	}
	fs.Decay()
	top := fs.TopK(1)
	if len(top) != 1 || top[0].Flow != 6 || top[0].Rate != 32 {
		t.Fatalf("elephant after decay = %+v", top)
	}
}

func TestFlowStatsZeroFlowIgnored(t *testing.T) {
	var fs FlowStats
	fs.Observe(0)
	if got := fs.TopK(8); len(got) != 0 {
		t.Fatalf("flow 0 tracked: %+v", got)
	}
}

func TestSketchElephantsFloat(t *testing.T) {
	var fs FlowStats
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			fs.Observe(1) // elephant
		}
		fs.Observe(uint64(1000 + round)) // a different mouse each round
		fs.Decay()
	}
	top := fs.TopK(1)
	if len(top) != 1 || top[0].Flow != 1 {
		t.Fatalf("elephant not on top: %+v", top)
	}
	if top[0].Rate == 0 {
		t.Fatal("elephant decayed to zero despite sustained traffic")
	}
}

func TestSketchDecayReclaims(t *testing.T) {
	var fs FlowStats
	fs.Observe(5)
	for i := 0; i < 4; i++ {
		fs.Decay()
	}
	if got := fs.TopK(flowSlots); len(got) != 0 {
		t.Fatalf("one-shot flow not reclaimed, %d flows live", len(got))
	}
}

func TestSketchTopKDeterministicOrder(t *testing.T) {
	var fs FlowStats
	for f := uint64(1); f <= 5; f++ {
		for i := uint64(0); i < f*10; i++ {
			fs.Observe(f)
		}
	}
	for i := 0; i < 30; i++ {
		fs.Observe(31) // ties flow 3; the lower key ranks first
		fs.Observe(30)
	}
	top := fs.TopK(5)
	want := []uint64{5, 4, 3, 30, 31}
	if len(top) != len(want) {
		t.Fatalf("unexpected top-k: %+v", top)
	}
	for i, f := range want {
		if top[i].Flow != f {
			t.Fatalf("unexpected top-k: %+v", top)
		}
	}
}

func TestPlanMigratesElephantsFromHotWorker(t *testing.T) {
	loads := []Load{{"a", 100}, {"b", 10}, {"c", 10}}
	elephants := []HeavyFlow{{Flow: 1, Rate: 50}, {Flow: 2, Rate: 40}}
	owner := func(f uint64) string { return "a" }
	plan := Plan(loads, elephants, owner, 1.5)
	if len(plan) == 0 {
		t.Fatal("expected migrations off the hot worker")
	}
	for _, mig := range plan {
		if mig.From != "a" {
			t.Fatalf("migrated from non-hot worker: %+v", mig)
		}
		if mig.To == "a" {
			t.Fatalf("migration back onto hot worker: %+v", mig)
		}
	}
	// Determinism: same inputs, same plan.
	again := Plan([]Load{{"a", 100}, {"b", 10}, {"c", 10}}, elephants, owner, 1.5)
	if len(again) != len(plan) {
		t.Fatalf("plan not deterministic: %d vs %d", len(plan), len(again))
	}
	for i := range plan {
		if plan[i] != again[i] {
			t.Fatalf("plan not deterministic at %d: %+v vs %+v", i, plan[i], again[i])
		}
	}
}

func TestPlanBalancedFleetNoMigrations(t *testing.T) {
	loads := []Load{{"a", 10}, {"b", 11}, {"c", 9}}
	elephants := []HeavyFlow{{Flow: 1, Rate: 50}}
	if p := Plan(loads, elephants, func(uint64) string { return "b" }, 2.0); p != nil {
		t.Fatalf("balanced fleet produced migrations: %+v", p)
	}
}

func TestPlanMiceStayPinned(t *testing.T) {
	// Elephant list only contains flow 1; flow 2 (a mouse) must not appear.
	loads := []Load{{"a", 100}, {"b", 1}}
	plan := Plan(loads, []HeavyFlow{{Flow: 1, Rate: 90}}, func(uint64) string { return "a" }, 1.2)
	for _, mig := range plan {
		if mig.Flow != 1 {
			t.Fatalf("non-elephant migrated: %+v", mig)
		}
	}
}

func TestLRUWarmHitsAndEviction(t *testing.T) {
	l := NewLRU(2)
	if l.Touch(1) {
		t.Fatal("first touch must be a miss")
	}
	if !l.Touch(1) {
		t.Fatal("second touch must be a hit")
	}
	l.Touch(2)
	l.Touch(1) // refresh 1; 2 is now coldest
	l.Touch(3) // evicts 2
	if l.Contains(2) {
		t.Fatal("coldest entry not evicted")
	}
	if !l.Contains(1) || !l.Contains(3) {
		t.Fatal("warm entries lost")
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
}

func TestLRUSingleSlot(t *testing.T) {
	l := NewLRU(1)
	l.Touch(1)
	if !l.Touch(1) {
		t.Fatal("resident flow missed")
	}
	if l.Touch(2) {
		t.Fatal("evicting touch reported as hit")
	}
	if l.Contains(1) {
		t.Fatal("evicted flow still resident")
	}
}
