package main

// Tracing seams for the serving workloads, all from outside the layers:
// a net.PacketConn wrapper on every node's socket, and wrapped
// Workload.Handle/Workload.Bypass function fields. Spans stay in memory
// (up to spanCap) and are written to a file when the run ends; counters
// cover the whole traced phase.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lambdanic/internal/matchlambda"
	"lambdanic/internal/workloads"
)

// Node roles on the serving path.
const (
	roleClient = iota
	roleGateway
	roleWorker
	roleKVServer
	roleKVClient
)

var roleNames = [...]string{"client", "gateway", "worker", "kvserver", "kvclient"}

// spanCap bounds the retained socket spans (about 50 bytes each).
const spanCap = 400_000

// sockSpan is one ReadFrom or WriteTo on a node's socket. A ReadFrom's
// span includes the time it blocked waiting for a packet.
type sockSpan struct {
	start, end int64 // ns since the tracer's epoch
	node       uint8
	write      bool
	wire       bool // carried a λ-NIC wire header
	flags      uint8
	seq, total uint16
	peer       uint16 // peer UDP port (all nodes share 127.0.0.1)
	workload   uint32
	reqID      uint64
	size       int32
}

// nodeInfo describes one traced socket; its counters are guarded by
// the tracer's mutex.
type nodeInfo struct {
	role, index int
	// Socket calls and λ-NIC packets written over the traced phase.
	reads, writes, wireWrites int64
	// RTT accounting for memcached client sockets: the client holds a
	// mutex across write→read, so one command is outstanding at a time.
	lastWrite, rttSum, rttN int64
}

// execStat accumulates wrapped-function time for one workload.
type execStat struct {
	handleNS, handleN atomic.Int64
	bypassNS, bypassN atomic.Int64
	bypassHits        atomic.Int64
}

// sockTracer owns the spans and counters of one traced phase. Nodes and
// exec stats are registered while the stack is built, before serving.
type sockTracer struct {
	epoch time.Time
	nodes []*nodeInfo
	exec  map[string]*execStat // by workload name
	// frozen stops the exec stats once the measured phase ends; the
	// socket state below stops under mu.
	frozen atomic.Bool

	mu        sync.Mutex
	recording bool
	spans     []sockSpan
	dropped   int64
}

func newSockTracer() *sockTracer {
	return &sockTracer{epoch: time.Now(), exec: map[string]*execStat{}}
}

func (t *sockTracer) now() int64 { return int64(time.Since(t.epoch)) }

// start begins recording, dropping the counts of set-up and warm-up.
func (t *sockTracer) start() {
	t.mu.Lock()
	t.recording = true
	t.spans, t.dropped = make([]sockSpan, 0, 1<<16), 0
	for _, n := range t.nodes {
		*n = nodeInfo{role: n.role, index: n.index}
	}
	t.mu.Unlock()
	for _, st := range t.exec {
		for _, c := range []*atomic.Int64{&st.handleNS, &st.handleN, &st.bypassNS, &st.bypassN, &st.bypassHits} {
			c.Store(0)
		}
	}
}

// stop ends recording. Calls still in flight (such as a gateway's
// retransmits for a call its client gave up on) are not counted, and
// the recorded state may be read without the mutex afterwards.
func (t *sockTracer) stop() {
	t.frozen.Store(true)
	t.mu.Lock()
	t.recording = false
	t.mu.Unlock()
}

// wrap returns conn with every ReadFrom/WriteTo recorded. A nil tracer
// returns conn unchanged.
func (t *sockTracer) wrap(conn net.PacketConn, role, index int) net.PacketConn {
	if t == nil {
		return conn
	}
	t.nodes = append(t.nodes, &nodeInfo{role: role, index: index})
	return &tracedConn{PacketConn: conn, t: t, id: uint8(len(t.nodes) - 1)}
}

type tracedConn struct {
	net.PacketConn
	t  *sockTracer
	id uint8
}

func (c *tracedConn) ReadFrom(p []byte) (int, net.Addr, error) {
	start := c.t.now()
	n, addr, err := c.PacketConn.ReadFrom(p)
	if err == nil {
		c.t.record(c.id, false, start, c.t.now(), p[:n], addr)
	}
	return n, addr, err
}

func (c *tracedConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	start := c.t.now()
	n, err := c.PacketConn.WriteTo(p, addr)
	if err == nil {
		c.t.record(c.id, true, start, c.t.now(), p, addr)
	}
	return n, err
}

func (t *sockTracer) record(node uint8, write bool, start, end int64, pkt []byte, addr net.Addr) {
	sp := sockSpan{start: start, end: end, node: node, write: write, size: int32(len(pkt))}
	if ua, ok := addr.(*net.UDPAddr); ok {
		sp.peer = uint16(ua.Port)
	}
	if h, _, err := matchlambda.DecodeWireHeader(pkt); err == nil {
		sp.wire = true
		sp.flags, sp.seq, sp.total = h.Flags, h.Seq, h.Total
		sp.workload, sp.reqID = h.WorkloadID, h.RequestID
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.recording {
		return
	}
	n := t.nodes[node]
	switch {
	case write:
		n.writes++
		if sp.wire {
			n.wireWrites++
		}
		if n.role == roleKVClient {
			n.lastWrite = start
		}
	default:
		n.reads++
		if n.role == roleKVClient && n.lastWrite > 0 {
			n.rttSum += end - n.lastWrite
			n.rttN++
		}
	}
	if len(t.spans) < spanCap {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
}

// wrapWorkload returns a copy of wl whose Handle and Bypass record
// their time. A nil tracer returns wl unchanged.
func (t *sockTracer) wrapWorkload(wl *workloads.Workload) *workloads.Workload {
	if t == nil {
		return wl
	}
	st := t.exec[wl.Name]
	if st == nil {
		st = &execStat{}
		t.exec[wl.Name] = st
	}
	cp := *wl
	handle := wl.Handle
	cp.Handle = func(p []byte, d *workloads.Deps) ([]byte, error) {
		t0 := time.Now()
		resp, err := handle(p, d)
		if !t.frozen.Load() {
			st.handleNS.Add(int64(time.Since(t0)))
			st.handleN.Add(1)
		}
		return resp, err
	}
	if bypass := wl.Bypass; bypass != nil {
		cp.Bypass = func(p []byte, d *workloads.Deps) ([]byte, bool) {
			t0 := time.Now()
			resp, ok := bypass(p, d)
			if !t.frozen.Load() {
				st.bypassNS.Add(int64(time.Since(t0)))
				st.bypassN.Add(1)
				if ok {
					st.bypassHits.Add(1)
				}
			}
			return resp, ok
		}
	}
	return &cp
}

// hopStats pairs, at the gateway, the read that completes a client
// request with the first write of its upstream request (same workload,
// first in first out) and returns the mean gap in µs. It also counts
// duplicate request arrivals (a request fragment read twice by one
// node) and the client requests seen, within the retained spans.
func (t *sockTracer) hopStats() (hopUS float64, dups, clientReqs int64) {
	spans := t.spans
	type fragKey struct {
		node, peer uint16
		id         uint64
		seq        uint16
	}
	type msgKey struct {
		peer uint16
		id   uint64
	}
	seenFrag := map[fragKey]bool{}
	got := map[msgKey]int{}         // gateway: fragments of a client request received
	pending := map[uint32][]int64{} // gateway: completed client requests awaiting upstream
	upstream := map[uint64]bool{}   // gateway: upstream request IDs already written
	var hopSum, hopN int64
	for _, sp := range spans {
		if !sp.wire || sp.flags&matchlambda.FlagResponse != 0 {
			continue
		}
		role := t.nodes[sp.node].role
		if sp.write {
			if role == roleClient && sp.seq == 0 {
				clientReqs++
			}
			if role == roleGateway && !upstream[sp.reqID] {
				upstream[sp.reqID] = true
				if q := pending[sp.workload]; len(q) > 0 {
					hopSum += sp.start - q[0]
					hopN++
					pending[sp.workload] = q[1:]
				}
			}
			continue
		}
		fk := fragKey{uint16(sp.node), sp.peer, sp.reqID, sp.seq}
		if seenFrag[fk] {
			dups++
			continue
		}
		seenFrag[fk] = true
		if role == roleGateway {
			mk := msgKey{sp.peer, sp.reqID}
			got[mk]++
			if got[mk] == int(max(sp.total, 1)) {
				pending[sp.workload] = append(pending[sp.workload], sp.end)
				delete(got, mk)
			}
		}
	}
	if hopN > 0 {
		hopUS = float64(hopSum) / float64(hopN) / 1e3
	}
	return hopUS, dups, clientReqs
}

// writeSpans writes the retained spans as tab-separated lines.
func (t *sockTracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# start_ns\tend_ns\tnode\top\tpeer_port\tworkload\treq_id\tseq\ttotal\tflags\tbytes (dropped %d)\n", t.dropped)
	for _, sp := range t.spans {
		n := t.nodes[sp.node]
		op := "read"
		if sp.write {
			op = "write"
		}
		fmt.Fprintf(w, "%d\t%d\t%s%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", sp.start, sp.end,
			roleNames[n.role], n.index, op, sp.peer, sp.workload, sp.reqID, sp.seq, sp.total, sp.flags, sp.size)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
