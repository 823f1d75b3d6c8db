package main

// The serving workloads: one process assembles the parts lnicd and
// lnic-gateway assemble — a memcached substitute whose store mirrors
// into an EMEM-style table, a worker with the lnicd Deps wiring, a
// gateway routing every lambda to it — and drives it over loopback UDP
// from closed-loop callers, each with its own client socket.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"lambdanic/internal/core"
	"lambdanic/internal/gateway"
	"lambdanic/internal/kvstore"
	"lambdanic/internal/monitor"
	"lambdanic/internal/obs"
	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

const (
	// callDeadline bounds each call. It outlasts the transport's own
	// five 200 ms attempts, so the transport's retry policy, not a host
	// stall of a few hundred milliseconds, decides whether a call fails.
	callDeadline = 2 * time.Second
	// setupReps is how many times a run builds the stack; setup_s is
	// the median and the last stack serves the measured phase.
	setupReps = 5
	// traceLimit caps the requests each obs collector retains.
	traceLimit = 20_000
	kvKeys     = 1000
	zipfS      = 1.1
)

// stack is one assembled serving path. It has one worker, as a gateway
// fronting one lnicd: with two, the gateway ring placed the few client
// flows (caller × lambda) by the callers' ephemeral ports, and that
// placement alone moved rps by 25% between runs.
type stack struct {
	mc       *kvstore.Server
	worker   *core.Worker
	gw       *gateway.Gateway
	clients  []*transport.Endpoint
	regs     []*monitor.Registry
	gwTrace  *obs.Collector
	wTrace   *obs.Collector
	tr       *sockTracer
	closeAll []func() error
}

func (s *stack) close() {
	for i := len(s.closeAll) - 1; i >= 0; i-- {
		_ = s.closeAll[i]() // teardown: a close error changes nothing measured
	}
}

func (s *stack) listen(role, index int) (net.PacketConn, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen %s%d: %w", roleNames[role], index, err)
	}
	return s.tr.wrap(conn, role, index), nil
}

// newStack builds the serving path with one client endpoint per caller.
// With tr non-nil every socket and lambda is wrapped and the obs
// collectors are enabled.
func newStack(tr *sockTracer, callers int) (*stack, error) {
	s := &stack{tr: tr}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	mcConn, err := s.listen(roleKVServer, 0)
	if err != nil {
		return nil, err
	}
	store := kvstore.NewStore()
	table := kvstore.NewTable(kvstore.DefaultSlots)
	store.SetMirror(table)
	s.mc = kvstore.NewServer(store, mcConn)
	s.closeAll = append(s.closeAll, s.mc.Close)

	kvConn, err := s.listen(roleKVClient, 0)
	if err != nil {
		return nil, err
	}
	s.closeAll = append(s.closeAll, kvConn.Close)
	deps := &workloads.Deps{KV: kvstore.NewClient(kvConn, s.mc.Addr()), KVTable: table}
	conn, err := s.listen(roleWorker, 0)
	if err != nil {
		return nil, err
	}
	s.worker = core.NewWorker(conn, deps)
	s.closeAll = append(s.closeAll, s.worker.Close)
	reg := monitor.NewRegistry()
	if err := s.worker.EnableMetrics(reg); err != nil {
		return nil, err
	}
	s.regs = append(s.regs, reg)
	for _, wl := range lambdas() {
		if err := s.worker.Install(tr.wrapWorkload(wl)); err != nil {
			return nil, err
		}
	}

	gwConn, err := s.listen(roleGateway, 0)
	if err != nil {
		return nil, err
	}
	s.gw = gateway.New(gwConn)
	s.closeAll = append(s.closeAll, s.gw.Close)
	reg = monitor.NewRegistry()
	if err := s.gw.EnableMetrics(reg); err != nil {
		return nil, err
	}
	s.regs = append(s.regs, reg)
	for _, wl := range lambdas() {
		s.gw.SetRoute(wl.ID, []net.Addr{s.worker.Addr()})
	}

	for i := 0; i < callers; i++ {
		conn, err := s.listen(roleClient, i)
		if err != nil {
			return nil, err
		}
		ep := transport.NewEndpoint(conn, nil)
		s.closeAll = append(s.closeAll, ep.Close)
		s.clients = append(s.clients, ep)
	}
	ok = true
	return s, nil
}

// startTracing starts the socket tracer and turns on the obs
// collectors, so the traced numbers leave out set-up and warm-up.
func (s *stack) startTracing() {
	s.tr.start()
	s.gwTrace = obs.NewCollector(obs.WallClock(), obs.WithLimit(traceLimit))
	s.gw.EnableTracing(s.gwTrace)
	s.wTrace = obs.NewCollector(obs.WallClock(), obs.WithLimit(traceLimit))
	s.worker.EnableTracing(s.wTrace)
}

// pathCounters are the stack's public counters.
type pathCounters struct {
	retx, drops, timeouts, failovers uint64
}

func (s *stack) counters() pathCounters {
	c := pathCounters{retx: s.gw.Retransmits(), timeouts: s.gw.UpstreamTimeouts(), failovers: s.gw.Failovers()}
	for _, ep := range s.clients {
		c.retx += ep.Retransmits()
		c.drops += ep.Drops()
	}
	for _, reg := range s.regs {
		c.drops += registryCounter(reg, "lnic_gateway_pool_drops_total") + registryCounter(reg, "lnic_worker_pool_drops_total")
	}
	return c
}

func (c pathCounters) minus(d pathCounters) pathCounters {
	return pathCounters{c.retx - d.retx, c.drops - d.drops, c.timeouts - d.timeouts, c.failovers - d.failovers}
}

// lambdas is the lnicd default set, the image transformer sized for the
// paper's 512×512 image.
func lambdas() []*workloads.Workload {
	return []*workloads.Workload{
		workloads.WebServer(),
		workloads.KVGetClient(),
		workloads.KVSetClient(),
		workloads.ImageTransformer(workloads.DefaultImageWidth, workloads.DefaultImageHeight),
	}
}

// request is one prepared call with its expected response.
type request struct {
	id      uint32
	kind    int // index into the workload's kind labels
	payload []byte
	want    []byte
}

// mix generates one caller's requests.
type mix interface {
	next() *request
}

// callStats is one caller's tally.
type callStats struct {
	// lat holds every attempt's latency in ns; a failed call counts at
	// the time it took to fail, so failures sit in the tail.
	lat                          []int64
	attempted, ok, failed, wrong int64
	bytes                        int64
	kinds                        []kindStats
	firstErr                     error
}

type kindStats struct {
	attempted, ok, failed int64
	lat                   []int64
}

// attempt makes one call under the deadline, checks its response and
// tallies it; it returns the call's latency.
func (st *callStats) attempt(ep *transport.Endpoint, gw net.Addr, r *request) int64 {
	k := &st.kinds[r.kind]
	ctx, cancel := context.WithTimeout(context.Background(), callDeadline)
	t0 := time.Now()
	resp, err := ep.Call(ctx, gw, r.id, r.payload)
	lat := int64(time.Since(t0))
	cancel()
	st.attempted++
	k.attempted++
	if err == nil && !bytes.Equal(resp, r.want) {
		st.wrong++
		err = fmt.Errorf("workload %d: response %q differs from expected %q", r.id, clip(resp), clip(r.want))
	}
	if err != nil {
		st.failed++
		k.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
		return lat
	}
	st.ok++
	k.ok++
	k.lat = append(k.lat, lat)
	st.bytes += int64(len(r.payload) + len(resp))
	return lat
}

// drive runs one closed-loop caller until the deadline.
func drive(ep *transport.Endpoint, gw net.Addr, m mix, nkinds int, until time.Time) *callStats {
	st := &callStats{lat: make([]int64, 0, 1<<16), kinds: make([]kindStats, nkinds)}
	for time.Now().Before(until) {
		st.lat = append(st.lat, st.attempt(ep, gw, m.next()))
	}
	return st
}

// probe makes n calls of each request, one at a time.
func probe(ep *transport.Endpoint, gw net.Addr, reqs []*request, n, nkinds int) *callStats {
	st := &callStats{kinds: make([]kindStats, nkinds)}
	for _, r := range reqs {
		for i := 0; i < n; i++ {
			st.attempt(ep, gw, r)
		}
	}
	return st
}

func clip(b []byte) []byte {
	if len(b) > 32 {
		return b[:32]
	}
	return b
}

// serveSpec describes one serving workload.
type serveSpec struct {
	callers int
	kinds   []string
	// warm runs the warm-up on a fresh stack.
	warm func(s *stack) error
	// mixes builds one request generator per caller.
	mixes func(seed int64, n int) []mix
	// probe holds requests --probe makes after the measured phase.
	probe []*request
	notes []string
}

func runServe(name string, seed int64, measure time.Duration, traced bool, probeN int, outDir string) ([]*outcome, error) {
	var spec *serveSpec
	var err error
	if name == "serve-small" {
		spec, err = smallSpec(seed)
	} else {
		spec, err = bulkSpec(seed)
	}
	if err != nil {
		return nil, err
	}
	if probeN > 0 && len(spec.probe) == 0 {
		return nil, fmt.Errorf("--probe applies to serve-bulk only")
	}
	first, err := servePhase(name, spec, seed, measure, nil, probeN, "")
	if err != nil {
		return nil, err
	}
	phases := []*outcome{first}
	if traced {
		o, err := servePhase(name, spec, seed, measure, newSockTracer(), 0, outDir)
		if err != nil {
			return nil, err
		}
		phases = append(phases, o)
	}
	return phases, nil
}

// servePhase sets up (setupReps times untraced, once traced), measures,
// makes probeN calls of each probe request, and tears down.
func servePhase(name string, spec *serveSpec, seed int64, measure time.Duration, tr *sockTracer, probeN int, outDir string) (*outcome, error) {
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	var setups []float64
	var s *stack
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = newStack(tr, spec.callers); err != nil {
			return nil, err
		}
		if err := spec.warm(s); err != nil {
			s.close()
			return nil, fmt.Errorf("%s warm-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	var prof *cpuProfiler
	if tr != nil {
		s.startTracing()
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	pc0 := s.counters()
	rt0 := readRuntime()
	heap := startHeapSampler()
	start := time.Now()
	until := start.Add(measure)
	mixes := spec.mixes(seed, len(s.clients))
	stats := make([]*callStats, len(s.clients))
	var wg sync.WaitGroup
	for i, ep := range s.clients {
		wg.Add(1)
		go func(i int, ep *transport.Endpoint) {
			defer wg.Done()
			stats[i] = drive(ep, s.gw.Addr(), mixes[i], len(spec.kinds), until)
		}(i, ep)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	peak := heap.stopMB()
	rt1 := readRuntime()
	pc := s.counters().minus(pc0)
	if tr != nil {
		tr.stop()
	}
	var probed *callStats
	var probePC pathCounters
	if probeN > 0 {
		pc1 := s.counters()
		probed = probe(s.clients[0], s.gw.Addr(), spec.probe, probeN, len(spec.kinds))
		probePC = s.counters().minus(pc1)
	}
	var samples []stackSample
	if prof != nil {
		var err error
		if samples, err = prof.stop(filepath.Join(outDir, "profile-"+name+".pprof")); err != nil {
			return nil, err
		}
	}

	o := &outcome{e2e: map[string]float64{}, notes: append([]string(nil), spec.notes...)}
	var lat []int64
	var byteSum, correct int64
	var firstErr error
	kinds := make([]kindStats, len(spec.kinds))
	for _, st := range stats {
		o.attempted += st.attempted
		o.failed += st.failed
		o.wrong += st.wrong
		correct += st.ok
		byteSum += st.bytes
		lat = append(lat, st.lat...)
		for k := range kinds {
			kinds[k].attempted += st.kinds[k].attempted
			kinds[k].ok += st.kinds[k].ok
			kinds[k].failed += st.kinds[k].failed
			kinds[k].lat = append(kinds[k].lat, st.kinds[k].lat...)
		}
		if st.firstErr != nil && firstErr == nil {
			firstErr = st.firstErr
		}
	}
	if probed != nil {
		// Probe calls count as attempts and failures; they are outside
		// the measured time, so no rate or latency includes them.
		o.attempted += probed.attempted
		o.failed += probed.failed
		o.wrong += probed.wrong
		for k := range kinds {
			kinds[k].attempted += probed.kinds[k].attempted
			kinds[k].ok += probed.kinds[k].ok
			kinds[k].failed += probed.kinds[k].failed
			kinds[k].lat = append(kinds[k].lat, probed.kinds[k].lat...)
		}
		if firstErr == nil {
			firstErr = probed.firstErr
		}
		var sizes []string
		for _, r := range spec.probe {
			sizes = append(sizes, spec.kinds[r.kind])
		}
		o.notes = append(o.notes, fmt.Sprintf("probe: %d calls each of %s, one at a time after the measured phase; retransmits=%d pool-drops=%d gateway-timeouts=%d failovers=%d",
			probeN, strings.Join(sizes, " "), probePC.retx, probePC.drops, probePC.timeouts, probePC.failovers))
	}
	if firstErr != nil {
		o.notes = append(o.notes, fmt.Sprintf("first failure: %v", firstErr))
	}
	o.samples = len(lat)
	o.e2e["setup_s"] = median(setups)
	o.e2e["rps"] = float64(correct) / wall
	o.e2e["goodput_mib_s"] = float64(byteSum) / wall / (1 << 20)
	o.e2e["p50_us"] = percentileUS(lat, 0.50)
	o.e2e["p999_us"] = percentileUS(lat, 0.999)
	o.notes = append(o.notes, fmt.Sprintf("latency of all %d calls: p50_us=%.1f p99_us=%.1f p999_us=%.1f",
		len(lat), o.e2e["p50_us"], percentileUS(lat, 0.99), o.e2e["p999_us"]))
	o.e2e["fail_ratio"] = float64(o.failed) / float64(max(o.attempted, 1))
	o.e2e["peak_heap_mb"] = peak
	o.notes = append(o.notes, fmt.Sprintf("callers=%d setup_s(each)=%s retransmits=%d pool-drops=%d gateway-timeouts=%d failovers=%d",
		len(s.clients), fmtFloats(setups), pc.retx, pc.drops, pc.timeouts, pc.failovers))
	for k, ks := range kinds {
		if ks.attempted == 0 {
			continue
		}
		o.notes = append(o.notes, fmt.Sprintf("  %-14s attempted=%d ok=%d failed=%d p50_us=%.1f",
			spec.kinds[k], ks.attempted, ks.ok, ks.failed, percentileUS(ks.lat, 0.5)))
	}
	if tr != nil {
		o.layers = s.layers(tr, samples, o, pc, rt0, rt1)
		if err := s.writeTraces(tr, outDir, name); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, ",")
}

// layers computes the serving path's per-layer metrics.
func (s *stack) layers(tr *sockTracer, samples []stackSample, o *outcome, pc pathCounters, rt0, rt1 runtimeCounters) map[string]float64 {
	l := profileShares(samples)
	correct := float64(max(o.attempted-o.failed, 1))
	var syscalls, pkts, rttSum, rttN int64
	for _, n := range tr.nodes {
		switch n.role {
		case roleClient, roleGateway, roleWorker:
			syscalls += n.reads + n.writes
			pkts += n.wireWrites
		case roleKVClient:
			rttSum += n.rttSum
			rttN += n.rttN
		}
	}
	l["transport.syscalls_per_req"] = float64(syscalls) / correct
	l["transport.pkts_per_req"] = float64(pkts) / correct
	l["transport.retx_per_kreq"] = 1000 * float64(pc.retx) / float64(max(o.attempted, 1))
	hop, dups, clientReqs := tr.hopStats()
	l["transport.dups_per_kreq"] = 1000 * float64(dups) / float64(max(clientReqs, 1))
	l["transport.shed"] = float64(pc.drops)
	l["gateway.hop_us"] = hop
	l["gateway.upstream_us"] = meanTransportSpanUS(s.gwTrace)
	l["gateway.timeouts"] = float64(pc.timeouts)
	l["gateway.failovers"] = float64(pc.failovers)

	meanUS := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n) / 1e3
	}
	stat := func(name string) *execStat {
		if st := tr.exec[name]; st != nil {
			return st
		}
		return &execStat{}
	}
	web, get, set, img := stat("web_server"), stat("kv_get_client"), stat("kv_set_client"), stat("image_transformer")
	l["worker.exec_us.web"] = meanUS(web.handleNS.Load(), web.handleN.Load())
	l["worker.exec_us.kvget"] = meanUS(get.handleNS.Load()+get.bypassNS.Load(), get.bypassN.Load())
	l["worker.exec_us.kvset"] = meanUS(set.handleNS.Load(), set.handleN.Load())
	l["worker.exec_us.image"] = meanUS(img.handleNS.Load(), img.handleN.Load())
	if n := get.bypassN.Load(); n > 0 {
		l["worker.bypass_ratio"] = float64(get.bypassHits.Load()) / float64(n)
	}
	rtt := meanUS(rttSum, rttN)
	l["kvstore.rtt_us"] = rtt
	if kvExec := meanUS(get.handleNS.Load()+set.handleNS.Load(), get.handleN.Load()+set.handleN.Load()); kvExec > 0 {
		l["kvstore.wait_us"] = max(0, kvExec-rtt)
	}
	addRuntimeLayers(l, rt0, rt1, o.attempted)
	o.notes = append(o.notes, fmt.Sprintf("trace: %d socket spans kept, %d dropped past the cap", len(tr.spans), tr.dropped))
	return l
}

// registryCounter reads one unlabeled counter from a registry's text
// exposition (0 if absent).
func registryCounter(reg *monitor.Registry, name string) uint64 {
	for _, line := range strings.Split(reg.Render(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64) // malformed reads as 0
			return n
		}
	}
	return 0
}

// meanTransportSpanUS is the mean upstream RPC attempt recorded by the
// gateway's obs collector.
func meanTransportSpanUS(c *obs.Collector) float64 {
	if c == nil {
		return 0
	}
	var sum time.Duration
	var n int
	for _, r := range c.Requests() {
		for _, sp := range r.Spans {
			if sp.Stage == obs.StageTransport {
				sum += sp.Duration()
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum.Microseconds()) / float64(n)
}

// writeTraces writes the socket spans and the obs collectors' Chrome
// traces into dir.
func (s *stack) writeTraces(tr *sockTracer, dir, name string) error {
	if err := tr.writeSpans(filepath.Join(dir, "trace-"+name+"-sockets.tsv")); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	for node, c := range map[string]*obs.Collector{"gateway": s.gwTrace, "worker": s.wTrace} {
		path := filepath.Join(dir, "trace-"+name+"-"+node+".json")
		if err := obs.WriteChromeTraceFile(path, c.Requests()); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

// call makes one warm-up call and checks its response.
func call(ep *transport.Endpoint, gw net.Addr, r *request) error {
	ctx, cancel := context.WithTimeout(context.Background(), callDeadline)
	defer cancel()
	resp, err := ep.Call(ctx, gw, r.id, r.payload)
	if err != nil {
		return err
	}
	if !bytes.Equal(resp, r.want) {
		return errors.New("warm-up response differs from expected")
	}
	return nil
}
