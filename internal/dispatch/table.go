package dispatch

// Table is one immutable flow-routing snapshot over a member set: a
// seeded consistent-hash ring plus the standing pins (elephant
// migrations, flow -> member index) layered on top of it. Every method
// that changes routing returns a new Table and leaves the receiver
// untouched, so a reader still holding the old snapshot — the gateway's
// lock-free request path — never sees a half-applied update.
type Table struct {
	ring *Ring
	seed uint64
	pins map[uint64]int
}

// NewTable builds a pin-free table over members with the given ring seed.
func NewTable(members []string, seed uint64) *Table {
	return &Table{ring: NewRing(members, seed), seed: seed}
}

// Members returns the member list the table routes over; Owner and
// Failover return indices into it.
func (t *Table) Members() []string { return t.ring.Members() }

// Owner is the member index a flow is routed to: a standing pin wins,
// otherwise the ring decides. -1 for an empty table.
func (t *Table) Owner(flow uint64) int {
	if i, ok := t.pins[flow]; ok {
		return i
	}
	return t.ring.Pick(flow)
}

// Failover is the deterministic retry order after owner failed: the
// flow's ring successors, skipping owner. Every table built from the
// same members and seed computes the same order, so a flow re-pins to
// the same live successor everywhere instead of scattering.
func (t *Table) Failover(flow uint64, owner int) []int {
	succ := t.ring.Successors(flow, len(t.Members()))
	out := succ[:0]
	for _, s := range succ {
		if s != owner {
			out = append(out, s)
		}
	}
	return out
}

// Pinned counts the standing pins.
func (t *Table) Pinned() int { return len(t.pins) }

// Without returns the table with member removed: the ring is rebuilt
// over the survivors (in their original order), pins to survivors are
// remapped by name, and pins to the removed member are dropped so those
// flows revert to their ring owner.
func (t *Table) Without(member string) *Table {
	old := t.Members()
	kept := make([]string, 0, len(old))
	for _, m := range old {
		if m != member {
			kept = append(kept, m)
		}
	}
	next := NewTable(kept, t.seed)
	if len(t.pins) > 0 {
		index := memberIndex(kept)
		next.pins = make(map[uint64]int, len(t.pins))
		for f, i := range t.pins {
			if ni, ok := index[old[i]]; ok {
				next.pins[f] = ni
			}
		}
	}
	return next
}

// Apply installs plan's moves as pins and returns the new table with
// the number of moves that changed routing. A move whose target is not
// a member is skipped; a move back to the flow's ring owner only drops
// its pin (and counts only if a pin existed); re-pinning a flow to its
// current pin target is skipped. With nothing applied the receiver
// itself is returned.
func (t *Table) Apply(plan []Migration) (*Table, int) {
	if len(plan) == 0 {
		return t, 0
	}
	index := memberIndex(t.Members())
	pins := make(map[uint64]int, len(t.pins)+len(plan))
	for f, i := range t.pins {
		pins[f] = i
	}
	applied := 0
	for _, mig := range plan {
		to, ok := index[mig.To]
		if !ok {
			continue
		}
		if t.ring.Pick(mig.Flow) == to {
			if _, had := pins[mig.Flow]; had {
				delete(pins, mig.Flow)
				applied++
			}
			continue
		}
		if cur, had := pins[mig.Flow]; had && cur == to {
			continue
		}
		pins[mig.Flow] = to
		applied++
	}
	if applied == 0 {
		return t, 0
	}
	return &Table{ring: t.ring, seed: t.seed, pins: pins}, applied
}

// Rebalance runs one rebalancer tick: plan moves for stats' topK
// heaviest flows against the per-member loads (Plan), apply them
// (Apply), and roll stats' rate window (Decay). It returns the new
// table and the number of moves applied.
func (t *Table) Rebalance(stats *FlowStats, loads []Load, topK int, ratio float64) (*Table, int) {
	members := t.Members()
	owner := func(flow uint64) string { return members[t.Owner(flow)] }
	next, applied := t.Apply(Plan(loads, stats.TopK(topK), owner, ratio))
	stats.Decay()
	return next, applied
}

func memberIndex(members []string) map[string]int {
	index := make(map[string]int, len(members))
	for i, m := range members {
		index[m] = i
	}
	return index
}
