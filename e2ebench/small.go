package main

// serve-small: one-packet web, GET and SET requests.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"

	"lambdanic/internal/benchio"
	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

// Kinds of serve-small requests.
const (
	kindWeb = iota
	kindGet
	kindSet
)

// smallReqs holds every prepared serve-small request: three web pages
// and a GET and a SET per key. The key model is the SET lambda's own
// contract (key k stores "value-k"); warm-up SETs every key, so every
// later GET must return its key's value.
type smallReqs struct {
	web      []*request
	get, set []*request
}

func newSmallReqs() (*smallReqs, error) {
	r := &smallReqs{}
	web := workloads.WebServer()
	for p := 0; p < 3; p++ {
		payload := web.MakeRequest(p)
		want, err := web.Handle(payload, nil)
		if err != nil {
			return nil, err
		}
		r.web = append(r.web, &request{id: web.ID, kind: kindWeb, payload: payload, want: want})
	}
	get, set := workloads.KVGetClient(), workloads.KVSetClient()
	for k := 0; k < kvKeys; k++ {
		value := []byte("value-" + strconv.Itoa(k))
		r.get = append(r.get, &request{id: get.ID, kind: kindGet, payload: get.MakeRequest(k), want: value})
		r.set = append(r.set, &request{id: set.ID, kind: kindSet, payload: set.MakeRequest(k), want: []byte("STORED")})
	}
	return r, nil
}

// smallMix draws web:GET:SET as 2:2:1, keys Zipf(1.1) over a seeded
// permutation of the key space.
type smallMix struct {
	reqs *smallReqs
	rng  *rand.Rand
	zipf *benchio.Zipf
	perm []int
}

func (m *smallMix) next() *request {
	switch c := m.rng.IntN(5); {
	case c < 2:
		return m.reqs.web[m.rng.IntN(3)]
	case c < 4:
		return m.reqs.get[m.perm[m.zipf.Next()]]
	default:
		return m.reqs.set[m.perm[m.zipf.Next()]]
	}
}

func smallSpec(seed int64) (*serveSpec, error) {
	reqs, err := newSmallReqs()
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewPCG(uint64(seed), 0)).Perm(kvKeys)
	// One caller per CPU, at most two.
	n := max(1, min(2, runtime.NumCPU()))
	return &serveSpec{
		callers: n,
		kinds:   []string{"web", "kvget", "kvset"},
		notes:   []string{fmt.Sprintf("serve-small: closed loop, %d callers, web:kvget:kvset = 2:2:1, keys Zipf(%.1f) over %d keys", n, zipfS, kvKeys)},
		warm: func(s *stack) error {
			// Fill the store (and its table mirror) through the path,
			// then touch every lambda.
			var wg sync.WaitGroup
			errs := make([]error, len(s.clients))
			for c, ep := range s.clients {
				wg.Add(1)
				go func(c int, ep *transport.Endpoint) {
					defer wg.Done()
					for k := c; k < kvKeys; k += len(s.clients) {
						if err := call(ep, s.gw.Addr(), reqs.set[k]); err != nil {
							errs[c] = err
							return
						}
					}
				}(c, ep)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return err
			}
			for i := 0; i < 50; i++ {
				for _, r := range []*request{reqs.web[i%3], reqs.get[i]} {
					if err := call(s.clients[0], s.gw.Addr(), r); err != nil {
						return err
					}
				}
			}
			return nil
		},
		mixes: func(seed int64, n int) []mix {
			out := make([]mix, n)
			for i := range out {
				rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)+1))
				zipf, _ := benchio.NewZipf(kvKeys, zipfS, rng.Uint64()) // the arguments are valid constants
				out[i] = &smallMix{reqs: reqs, rng: rng, zipf: zipf, perm: perm}
			}
			return out
		},
	}, nil
}
