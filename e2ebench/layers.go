package main

// layerDef is one per-layer metric and the end-to-end metric it should
// move ("no change" names the workloads where it should not).
type layerDef struct {
	name, unit, moves string
}

// layerMetrics are printed by the traced run of every workload; a layer
// that does no work on a workload reports 0.
var layerMetrics = []layerDef{
	{"transport.syscalls_per_req", "count", "rps, p50_us on serve-small; no change on sim-*"},
	{"transport.syscall_share", "ratio", "rps, p50_us on serve-small; no change on sim-*"},
	{"transport.pkts_per_req", "count", "fail_ratio, goodput_mib_s, p999_us on serve-bulk; no change on sim-*"},
	{"transport.retx_per_kreq", "1/kreq", "fail_ratio, goodput_mib_s, p999_us on serve-bulk; no change on sim-*"},
	{"transport.dups_per_kreq", "1/kreq", "fail_ratio, goodput_mib_s, p999_us on serve-bulk; no change on sim-*"},
	{"transport.shed", "count", "fail_ratio, p999_us on serve-bulk; no change on sim-*"},
	{"transport.cpu_share", "ratio", "rps on serve-small, goodput_mib_s on serve-bulk; no change on sim-*"},
	{"gateway.hop_us", "us", "p50_us, rps on serve-small; no change on serve-bulk (barely), sim-*"},
	{"gateway.upstream_us", "us", "p50_us, rps on serve-small; no change on sim-*"},
	{"gateway.timeouts", "count", "fail_ratio, p999_us on serve-bulk; no change on sim-*"},
	{"gateway.failovers", "count", "fail_ratio, p999_us on serve-bulk; no change on sim-*"},
	{"gateway.cpu_share", "ratio", "rps on serve-small; no change on serve-bulk (barely), sim-*"},
	{"worker.exec_us.web", "us", "p50_us on serve-small; no change on sim-*"},
	{"worker.exec_us.kvget", "us", "p50_us on serve-small; no change on sim-*"},
	{"worker.exec_us.kvset", "us", "p50_us on serve-small; no change on sim-*"},
	{"worker.exec_us.image", "us", "p50_us on serve-bulk; no change on sim-*"},
	{"worker.bypass_ratio", "ratio", "p50_us on serve-small; no change on serve-bulk, sim-*"},
	{"kvstore.rtt_us", "us", "p50_us, p999_us on serve-small; no change on serve-bulk, sim-*"},
	{"kvstore.wait_us", "us", "p50_us, p999_us on serve-small; no change on serve-bulk, sim-*"},
	{"telemetry.cpu_share", "ratio", "rps on serve-small; no change on sim-*"},
	{"runtime.alloc_bytes_per_req", "B", "p999_us on serve-small; wall_s, peak_heap_mb on sim-rack"},
	{"runtime.gc_per_kreq", "1/kreq", "p999_us on serve-small; wall_s, peak_heap_mb on sim-rack"},
	{"runtime.gc_share", "ratio", "p999_us on serve-small; wall_s on sim-rack"},
	{"runtime.sched_share", "ratio", "p999_us on serve-small; wall_s on sim-rack"},
	{"sim.events", "count", "wall_s on sim-rack (exact count); no change on serve-*"},
	{"sim.events_per_s", "1/s", "wall_s on sim-rack; no change on serve-*"},
	{"sim.cpu_share", "ratio", "wall_s on sim-rack; no change on serve-*"},
	{"sim.par.cpu_util", "ratio", "wall_s on sim-rack-par; no change on sim-rack, serve-*"},
	{"sim.par.events_per_s", "1/s", "wall_s on sim-rack-par; no change on sim-rack, serve-*"},
	{"nicsim.cpu_share", "ratio", "wall_s on sim-rack; no change on serve-*"},
	{"mcc.exec_share", "ratio", "wall_s on sim-rack; no change on serve-*"},
	{"backend.deploy_share", "ratio", "wall_s, peak_heap_mb on sim-rack; no change on serve-*"},
	{"mcc.compile_share", "ratio", "wall_s, peak_heap_mb on sim-rack; no change on serve-*"},
	{"rdma.register_share", "ratio", "wall_s, peak_heap_mb on sim-rack; no change on serve-*"},
	{"wfq.cpu_share", "ratio", "wall_s on sim-rack; no change on serve-*"},
	{"dispatch.cpu_share", "ratio", "wall_s on sim-rack; no change on serve-*"},
	{"placement.cpu_share", "ratio", "wall_s on sim-rack; no change on serve-*"},
	{"autoscale.cpu_share", "ratio", "wall_s on sim-rack; no change on serve-*"},
	{"experiments.cpu_share", "ratio", "wall_s on sim-rack; no change on serve-*"},
	{"experiments.fmt_share", "ratio", "wall_s on sim-rack; no change on serve-*"},
}
