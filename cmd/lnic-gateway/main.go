// Command lnic-gateway runs the λ-NIC gateway (paper Fig. 2): it
// proxies client requests to worker daemons by workload ID with
// weakly-consistent delivery (timeout + retransmit) and flow-affine
// dispatch — each flow (client source × workload) is pinned to a
// worker on a seeded consistent-hash ring, so repeat requests land on
// the worker whose cores already hold that flow's state warm.
//
// Usage:
//
//	lnic-gateway -listen 127.0.0.1:8080 \
//	    -route "1=127.0.0.1:9000,127.0.0.1:9001" -route "4=127.0.0.1:9000" \
//	    [-rebalance 1s] [-rebalance-topk 8] [-imbalance 1.5] \
//	    [-metrics :9101] [-pprof :9111] [-trace-out trace.json] \
//	    [-faults "drop=0.05,to=127.0.0.1:9000"] [-faults-seed N]
//
// -rebalance enables the elephant-flow migration loop: every period it
// reads per-worker load (the gateway's in-flight counts, or healthd's
// EWMA-smoothed report when deployed via the library), and re-pins the
// top-k highest-rate flows off workers whose load exceeds -imbalance ×
// the fleet mean onto underloaded ones. Mice are never migrated, so
// the warm-state win of pinning is preserved. 0 (the default) leaves
// pinning static.
//
// Each -route maps one workload ID to its worker addresses. -trace-out
// records every proxied request's lifecycle (upstream RPC attempts and
// retransmits) and writes a Chrome trace-event JSON file on shutdown.
// -faults installs a deterministic fault rule on the gateway socket
// (keys: drop, dup, reorder, delay, from, to, first, last, partition);
// scope it to one worker link with to=ADDR to rehearse a partial
// outage. Stop with SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"lambdanic/internal/faults"
	"lambdanic/internal/gateway"
	"lambdanic/internal/monitor"
	"lambdanic/internal/obs"
)

// routeFlags collects repeated -route flags.
type routeFlags []string

func (r *routeFlags) String() string { return strings.Join(*r, ";") }

func (r *routeFlags) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lnic-gateway:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lnic-gateway", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "UDP address to serve on")
	var routes routeFlags
	fs.Var(&routes, "route", "workloadID=addr1,addr2 (repeatable)")
	metricsAddr := fs.String("metrics", "", "serve Prometheus-style metrics on this HTTP address")
	pprofAddr := fs.String("pprof", "", "serve Go runtime profiling (/debug/pprof/) on this HTTP address")
	traceOut := fs.String("trace-out", "", "write a Chrome trace of proxied requests to this file on shutdown")
	faultSpec := fs.String("faults", "", "fault rule for the gateway socket, e.g. \"drop=0.05,to=127.0.0.1:9000\"")
	faultSeed := fs.Int64("faults-seed", 42, "seed for deterministic fault decisions")
	rebalance := fs.Duration("rebalance", 0, "elephant-flow migration tick period (0 disables)")
	rebalanceTopK := fs.Int("rebalance-topk", 8, "elephants considered per workload each rebalance tick")
	imbalance := fs.Float64("imbalance", 1.5, "overload threshold as a multiple of mean worker load")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(routes) == 0 {
		return fmt.Errorf("at least one -route is required")
	}
	if *imbalance < 1 {
		return fmt.Errorf("-imbalance %v: must be at least 1", *imbalance)
	}
	if *rebalanceTopK < 1 {
		return fmt.Errorf("-rebalance-topk %d: must be at least 1", *rebalanceTopK)
	}

	// A nil injector wraps connections as pass-throughs, so the
	// unfaulted hot path is untouched.
	var injector *faults.Injector
	if *faultSpec != "" {
		rules, err := faults.ParseRules(*faultSpec)
		if err != nil {
			return err
		}
		injector = faults.NewInjector(*faultSeed, rules...)
		fmt.Printf("lnic-gateway: fault rules installed: %+v\n", rules)
	}

	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	gw := gateway.New(injector.WrapConn(conn, conn.LocalAddr().String()))
	defer gw.Close()

	var collector *obs.Collector
	if *traceOut != "" {
		// Create the file up front so a bad path fails at startup, not
		// after a long run when the trace would be lost.
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		f.Close()
		collector = obs.NewCollector(obs.WallClock())
		gw.EnableTracing(collector)
	}

	if *metricsAddr != "" {
		reg := monitor.NewRegistry()
		if err := gw.EnableMetrics(reg); err != nil {
			return err
		}
		srv := &http.Server{Addr: *metricsAddr, Handler: reg.Handler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "lnic-gateway: metrics server:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("lnic-gateway: metrics on http://%s/\n", *metricsAddr)
	}

	if *pprofAddr != "" {
		srv := &http.Server{Addr: *pprofAddr, Handler: monitor.PprofMux()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "lnic-gateway: pprof server:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("lnic-gateway: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	for _, spec := range routes {
		id, addrs, err := parseRoute(spec)
		if err != nil {
			return err
		}
		gw.SetRoute(id, addrs)
		fmt.Printf("lnic-gateway: workload %d -> %v\n", id, addrs)
	}

	if *rebalance > 0 {
		stop := gw.StartRebalancer(gateway.RebalanceConfig{
			Every:          *rebalance,
			TopK:           *rebalanceTopK,
			ImbalanceRatio: *imbalance,
		})
		defer stop()
		fmt.Printf("lnic-gateway: elephant rebalancer every %v (top-%d, imbalance %.2fx)\n",
			*rebalance, *rebalanceTopK, *imbalance)
	}

	fmt.Printf("lnic-gateway: serving on %v\n", gw.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("lnic-gateway: forwarded=%d unrouted=%d\n", gw.Forwarded(), gw.Unrouted())
	if collector != nil {
		reqs := collector.Requests()
		if err := obs.WriteChromeTraceFile(*traceOut, reqs); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Printf("lnic-gateway: wrote Chrome trace (%d requests) to %s\n", len(reqs), *traceOut)
	}
	return nil
}

func parseRoute(spec string) (uint32, []net.Addr, error) {
	idPart, addrPart, ok := strings.Cut(spec, "=")
	if !ok {
		return 0, nil, fmt.Errorf("route %q: want id=addr,addr", spec)
	}
	id, err := strconv.ParseUint(idPart, 10, 32)
	if err != nil {
		return 0, nil, fmt.Errorf("route %q: bad workload id: %w", spec, err)
	}
	var addrs []net.Addr
	for _, a := range strings.Split(addrPart, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		udp, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return 0, nil, fmt.Errorf("route %q: %w", spec, err)
		}
		addrs = append(addrs, udp)
	}
	if len(addrs) == 0 {
		return 0, nil, fmt.Errorf("route %q: no worker addresses", spec)
	}
	return uint32(id), addrs, nil
}
