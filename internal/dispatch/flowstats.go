package dispatch

import (
	"sort"
	"sync/atomic"
)

// FlowStats is a fixed-size, lock-free, lossy per-flow rate table — the
// sliding-window sketch feeding elephant detection. The request path
// records with at most flowProbes CAS/add operations and never blocks;
// the rebalancer scans and decays it once per tick. Collisions drop
// samples (lossy), which only ever under-counts a flow — an elephant
// generates so many samples it cannot stay hidden. The zero value is
// ready to use.
type FlowStats struct {
	slots [flowSlots]flowSlot
}

type flowSlot struct {
	key  atomic.Uint64
	hits atomic.Uint64
}

const (
	flowSlots  = 1024 // power of two
	flowProbes = 4
)

// Observe records one request for the flow (flow 0 is never tracked).
func (fs *FlowStats) Observe(flow uint64) {
	if flow == 0 {
		return
	}
	idx := int(flow>>32^flow) & (flowSlots - 1)
	for p := 0; p < flowProbes; p++ {
		slot := &fs.slots[(idx+p)&(flowSlots-1)]
		k := slot.key.Load()
		if k == flow {
			slot.hits.Add(1)
			return
		}
		if k == 0 && slot.key.CompareAndSwap(0, flow) {
			slot.hits.Add(1)
			return
		}
	}
	// All probe slots taken by other flows: drop the sample.
}

// Decay halves every count and frees dead slots — the sliding window.
// Races with concurrent observes can lose a sample; the window is a
// heuristic, not an invariant.
func (fs *FlowStats) Decay() {
	for i := range fs.slots {
		slot := &fs.slots[i]
		if slot.key.Load() == 0 {
			continue
		}
		h := slot.hits.Load() >> 1
		slot.hits.Store(h)
		if h == 0 {
			slot.key.Store(0)
		}
	}
}

// HeavyFlow is one entry of TopK.
type HeavyFlow struct {
	Flow uint64
	Rate uint64
}

// TopK returns the k heaviest tracked flows, heaviest first. Ties break
// on the flow key so the order is deterministic.
func (fs *FlowStats) TopK(k int) []HeavyFlow {
	if k <= 0 {
		return nil
	}
	var all []HeavyFlow
	for i := range fs.slots {
		slot := &fs.slots[i]
		key := slot.key.Load()
		if key == 0 {
			continue
		}
		if h := slot.hits.Load(); h > 0 {
			all = append(all, HeavyFlow{Flow: key, Rate: h})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Rate != all[b].Rate {
			return all[a].Rate > all[b].Rate
		}
		return all[a].Flow < all[b].Flow
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
