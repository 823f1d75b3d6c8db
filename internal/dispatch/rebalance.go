package dispatch

import "sort"

// Load is one worker's smoothed load as seen by the rebalancer (healthd
// EWMA in deployments, in-flight counts in the standalone gateway).
type Load struct {
	Worker string
	Load   float64
}

// Migration moves one elephant flow from an overloaded worker to an
// underloaded one. Mice are never migrated.
type Migration struct {
	Flow uint64
	From string
	To   string
}

// Plan decides which elephant flows to migrate. A worker is overloaded
// when its load exceeds ratio × the mean load; elephants currently pinned
// to overloaded workers are moved, heaviest first, onto the least-loaded
// worker, with virtual loads updated after each move so a single cold
// worker does not absorb every elephant. owner maps a flow to the worker
// it is currently pinned to (ring pick + any standing migrations).
//
// The plan is deterministic: loads are sorted by (load, name), elephants
// arrive sorted from FlowStats.TopK, and each decision depends only on the
// inputs. Returns nil when the fleet is balanced or has fewer than two
// workers.
func Plan(loads []Load, elephants []HeavyFlow, owner func(flow uint64) string, ratio float64) []Migration {
	if len(loads) < 2 || len(elephants) == 0 || owner == nil {
		return nil
	}
	if ratio < 1 {
		ratio = 1
	}
	byName := make(map[string]*Load, len(loads))
	sorted := make([]*Load, 0, len(loads))
	var total float64
	for i := range loads {
		l := &loads[i]
		byName[l.Worker] = l
		sorted = append(sorted, l)
		total += l.Load
	}
	mean := total / float64(len(loads))
	if mean <= 0 {
		return nil
	}
	high := mean * ratio

	// Per-elephant load estimate: split the source worker's excess over
	// the mean across its elephants would require attribution we don't
	// have, so use the mean flow contribution of the heavy set. Rates are
	// sketch counts, not load units; what matters is that moving an
	// elephant debits the source and credits the target consistently.
	var rateSum float64
	for _, e := range elephants {
		rateSum += float64(e.Rate)
	}
	if rateSum <= 0 {
		return nil
	}
	// Scale sketch rate to load units so virtual updates are sane:
	// assume the tracked elephants collectively account for the total load.
	loadPerRate := total / rateSum

	leastLoaded := func() *Load {
		sort.Slice(sorted, func(a, b int) bool {
			if sorted[a].Load != sorted[b].Load {
				return sorted[a].Load < sorted[b].Load
			}
			return sorted[a].Worker < sorted[b].Worker
		})
		return sorted[0]
	}

	var plan []Migration
	for _, e := range elephants {
		src, ok := byName[owner(e.Flow)]
		if !ok || src.Load <= high {
			continue
		}
		dst := leastLoaded()
		if dst.Worker == src.Worker || dst.Load >= src.Load {
			continue
		}
		delta := float64(e.Rate) * loadPerRate
		if delta > src.Load-mean {
			delta = src.Load - mean // don't overshoot below the mean
		}
		plan = append(plan, Migration{Flow: e.Flow, From: src.Worker, To: dst.Worker})
		src.Load -= delta
		dst.Load += delta
	}
	return plan
}
