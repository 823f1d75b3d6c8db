package main

// CPU-profile attribution. A phase is profiled with runtime/pprof into
// memory; the profile (gzipped protobuf, profile.proto) is decoded here
// with a minimal reader, since the module takes no dependencies, and
// each sample is attributed to repository modules by its stack.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// stackSample is one profile sample: function names, leaf first, and
// its CPU time in nanoseconds.
type stackSample struct {
	funcs  []string
	weight int64
}

// cpuProfiler records a CPU profile into memory.
type cpuProfiler struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfiler, error) {
	p := &cpuProfiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, writes it to path for go tool pprof, and
// returns its samples.
func (p *cpuProfiler) stop(path string) ([]stackSample, error) {
	pprof.StopCPUProfile()
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return parseProfile(p.buf.Bytes())
}

// protoField calls fn for each top-level field of a protobuf message:
// varints carry v, length-delimited fields carry data.
func protoField(b []byte, fn func(field, wire int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			fn(field, wire, v, nil)
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: truncated fixed field")
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			fn(field, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints decodes a repeated integer field in either encoding.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// parseProfile decodes a gzipped pprof CPU profile.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		strs    []string
		locs    = map[uint64][]uint64{} // location → function IDs, innermost first
		names   = map[uint64]uint64{}   // function → name string index
	)
	err = protoField(raw, func(field, wire int, _ uint64, data []byte) {
		switch field {
		case 2: // Sample
			var s rawSample
			_ = protoField(data, func(f, w int, v uint64, d []byte) {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					s.vals = appendVarints(s.vals, w, v, d)
				}
			})
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			_ = protoField(data, func(f, _ int, v uint64, d []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line
					_ = protoField(d, func(lf, _ int, lv uint64, _ []byte) {
						if lf == 1 {
							fns = append(fns, lv)
						}
					})
				}
			})
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			_ = protoField(data, func(f, _ int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			})
			names[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{}
		if len(s.vals) > 1 {
			st.weight = int64(s.vals[1])
		} else if len(s.vals) == 1 {
			st.weight = int64(s.vals[0])
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := names[f]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

const repoPrefix = "lambdanic/internal/"

// moduleOf returns the repository package a function belongs to, or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// hasFrame reports whether any frame starts with one of the prefixes.
func hasFrame(funcs []string, prefixes ...string) bool {
	for _, f := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// Frame sets that mark a sample as belonging to one activity.
var (
	socketFrames = []string{"internal/poll.(*FD)."}
	gcFrames     = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"}
	schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.wakep",
		"runtime.goready", "runtime.park_m", "runtime.sysmon"}
	mccExecFrames = []string{repoPrefix + "mcc.(*Executable).Execute", repoPrefix + "mcc.(*Executable).runCompiled",
		repoPrefix + "mcc.(*Executable).executeInterp", repoPrefix + "mcc.(*env).run"}
	deployFrames   = []string{repoPrefix + "backend.(*LambdaNIC).Deploy"}
	registerFrames = []string{repoPrefix + "rdma.(*Engine).Register"}
)

// profileShares attributes CPU time. A module's cpu_share is the time
// whose innermost repository frame is in that module (runtime and
// library work it calls counts toward it). The other shares count
// every sample whose stack holds the named frames, so they overlap the
// module shares.
func profileShares(samples []stackSample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		total += s.weight
		mod := ""
		for _, f := range s.funcs {
			if mod = moduleOf(f); mod != "" {
				break
			}
		}
		if mod == "monitor" {
			mod = "telemetry"
		}
		if mod != "" {
			by[mod+".cpu_share"] += s.weight
		}
		if hasFrame(s.funcs, socketFrames...) {
			by["transport.syscall_share"] += s.weight
		}
		if hasFrame(s.funcs, gcFrames...) {
			by["runtime.gc_share"] += s.weight
		}
		if hasFrame(s.funcs, schedFrames...) {
			by["runtime.sched_share"] += s.weight
		}
		exec := hasFrame(s.funcs, mccExecFrames...)
		if exec {
			by["mcc.exec_share"] += s.weight
		} else if hasFrame(s.funcs, repoPrefix+"mcc.") {
			by["mcc.compile_share"] += s.weight
		}
		if hasFrame(s.funcs, deployFrames...) {
			by["backend.deploy_share"] += s.weight
		}
		if hasFrame(s.funcs, registerFrames...) {
			by["rdma.register_share"] += s.weight
		}
		if mod == "experiments" && hasFrame(s.funcs, "fmt.") {
			by["experiments.fmt_share"] += s.weight
		}
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for k, v := range by {
		out[k] = float64(v) / float64(total)
	}
	return out
}
