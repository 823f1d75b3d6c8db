package main

// serve-bulk: multi-fragment image-transformer requests.

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

// bulkSize is one image side length and its share of a block.
type bulkSize struct {
	side, perBlock int
}

// bulkSizes are the measured sizes: 64×64 to 128×128 (16–64 KiB, 12–47
// fragments), every one of which completes from a single caller. The
// larger sizes lose fragments at random (README.md, "Why one caller and
// these sizes"); they run only as the --probe calls.
var bulkSizes = []bulkSize{{64, 4}, {96, 2}, {128, 1}}

// probeSides are the sizes --probe attempts after the measured phase:
// 181×181 to the paper's 512×512 (128 KiB–1 MiB, 94–750 fragments).
var probeSides = []int{181, 256, 512}

// bulkMix replays blocks holding each size perBlock times, every block
// in a seeded order, so the caller attempts the sizes in fixed shares.
type bulkMix struct {
	reqs  []*request
	rng   *rand.Rand
	block []int
	pos   int
}

func (m *bulkMix) next() *request {
	if m.pos == len(m.block) {
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
		m.pos = 0
	}
	r := m.reqs[m.block[m.pos]]
	m.pos++
	return r
}

func bulkSpec(seed int64) (*serveSpec, error) {
	img := workloads.ImageTransformer(workloads.DefaultImageWidth, workloads.DefaultImageHeight)
	spec := &serveSpec{callers: 1}
	add := func(side int) (*request, error) {
		payload := workloads.ImageRequest(side, side, byte(seed))
		want, err := img.Handle(payload, nil)
		if err != nil {
			return nil, err
		}
		r := &request{id: img.ID, kind: len(spec.kinds), payload: payload, want: want}
		frags := (len(payload) + transport.DefaultMTU - 1) / transport.DefaultMTU
		spec.kinds = append(spec.kinds, fmt.Sprintf("%dx%d(%dKiB,%dfrag)", side, side, len(payload)/1024, frags))
		return r, nil
	}
	var reqs []*request
	var block []int
	var seq []string
	for _, sz := range bulkSizes {
		r, err := add(sz.side)
		if err != nil {
			return nil, err
		}
		seq = append(seq, fmt.Sprintf("%dx%d×%d", sz.side, sz.side, sz.perBlock))
		for j := 0; j < sz.perBlock; j++ {
			block = append(block, len(reqs))
		}
		reqs = append(reqs, r)
	}
	for _, side := range probeSides {
		r, err := add(side)
		if err != nil {
			return nil, err
		}
		spec.probe = append(spec.probe, r)
	}
	spec.notes = []string{fmt.Sprintf("serve-bulk: closed loop, %d caller, image sizes per block in seeded order: %s; call deadline %v",
		spec.callers, strings.Join(seq, " "), callDeadline)}
	spec.mixes = func(seed int64, n int) []mix {
		out := make([]mix, n)
		for c := range out {
			rng := rand.New(rand.NewPCG(uint64(seed), uint64(c)+1))
			b := append([]int(nil), block...)
			out[c] = &bulkMix{reqs: reqs, rng: rng, block: b, pos: len(b)}
		}
		return out
	}
	spec.warm = func(s *stack) error {
		for i := 0; i < 100; i++ {
			for _, r := range reqs {
				if err := call(s.clients[0], s.gw.Addr(), r); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return spec, nil
}
