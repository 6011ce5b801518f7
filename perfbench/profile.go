package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The CPU split of a traced run: the benchmark takes a runtime/pprof CPU
// profile around the traced phase, decodes it here (the profile.proto
// format, standard library only) and attributes every sample to one layer
// — the innermost match/... package on its stack, with the runtime's GC
// and goroutine-handoff frames split out.

// sample is one decoded profile sample: its call stack, innermost frame
// first (inlined frames expanded), and its sample count.
type sample struct {
	funcs []string
	n     int64
}

// profileRun runs fn under the CPU profiler and returns the decoded samples.
func profileRun(fn func() error) ([]sample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	return parseProfile(buf.Bytes())
}

// layerShares attributes samples to layers and returns each layer's share
// of all samples.
func layerShares(samples []sample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		total += s.n
		by[attribute(s.funcs)] += s.n
	}
	out := map[string]float64{}
	for k, v := range by {
		out[k] = frac(float64(v), float64(total))
	}
	return out
}

// cpuLayers are the layers whose share the benchmark reports, as
// <layer>.cpu_share. "other" (the benchmark itself, the standard library
// outside the runtime) is left out.
var cpuLayers = []string{
	"apps.amg", "apps.comd", "apps.hpccg", "apps.lulesh", "apps.minife", "apps.minivite",
	"appkit", "simnet", "handoff", "mpi", "fti", "designs", "obs", "trace", "core", "store", "gc",
}

// attribute names the layer one stack belongs to. GC work wins wherever it
// runs (a mark assist under an app kernel is GC cost). Otherwise the
// innermost match/... package decides, except that runtime scheduling and
// channel frames directly under simnet — the goroutine park/wake pair of a
// process handoff — count as "handoff", as do scheduler frames with no
// match/... caller at all (idle Ms spinning for the next handoff).
func attribute(funcs []string) string {
	for _, f := range funcs {
		if isGCFrame(f) {
			return "gc"
		}
	}
	for i, f := range funcs {
		pkg := funcPackage(f)
		if !strings.HasPrefix(pkg, "match/") || strings.HasPrefix(pkg, "match/perfbench") {
			continue
		}
		layer := layerOf(pkg)
		if layer == "simnet" {
			for _, inner := range funcs[:i] {
				if isHandoffFrame(inner) {
					return "handoff"
				}
			}
		}
		return layer
	}
	for _, f := range funcs {
		if isHandoffFrame(f) {
			return "handoff"
		}
	}
	return "other"
}

// layerOf maps a match/... import path to its layer name.
func layerOf(pkg string) string {
	rest := strings.TrimPrefix(strings.TrimPrefix(pkg, "match"), "/")
	switch {
	case rest == "" || rest == "internal/core":
		return "core"
	case rest == "internal/apps/appkit" || rest == "internal/apps" || rest == "internal/apps/apptest":
		return "appkit"
	case strings.HasPrefix(rest, "internal/apps/"):
		return "apps." + strings.ToLower(strings.SplitN(strings.TrimPrefix(rest, "internal/apps/"), "/", 2)[0])
	}
	switch strings.SplitN(strings.TrimPrefix(rest, "internal/"), "/", 2)[0] {
	case "simnet":
		return "simnet"
	case "mpi":
		return "mpi"
	case "fti", "enc", "rs", "storage":
		return "fti"
	case "obs":
		return "obs"
	case "trace":
		return "trace"
	case "store":
		return "store"
	case "detect", "fault", "ckpt", "replica", "restart", "reinit", "ulfm":
		return "designs"
	}
	return "other"
}

// funcPackage extracts the import path from a symbol name such as
// "match/internal/apps/hpccg.(*App).spmv" or "runtime.chanrecv".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

var gcPrefixes = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.wbBuf",
	"runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
	"runtime.(*gcControllerState)", "runtime.(*scavengerState)",
}

func isGCFrame(f string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// handoffFrames are the runtime functions a goroutine handoff runs
// through: channel operations, parking and readying, the scheduler loop
// and the futex/semaphore sleeps under it.
var handoffFrames = []string{
	"chansend", "chanrecv", "closechan", "selectgo", "send", "recv", "sendDirect", "recvDirect",
	"gopark", "goready", "ready", "park_m", "schedule", "findRunnable", "findrunnable",
	"execute", "gogo", "mcall", "wakep", "startm", "stopm", "handoffp", "acquirep", "releasep",
	"futex", "futexsleep", "futexwakeup", "notesleep", "notewakeup", "semasleep", "semawakeup",
	"runqget", "runqput", "runqgrab", "runqsteal", "stealWork", "resetspinning", "casgstatus",
	"goschedImpl", "gosched_m", "lock2", "unlock2", "usleep", "osyield", "netpoll",
}

func isHandoffFrame(f string) bool {
	name, ok := strings.CutPrefix(f, "runtime.")
	if !ok {
		return false
	}
	for _, h := range handoffFrames {
		if name == h {
			return true
		}
	}
	return false
}

// parseProfile decodes a (possibly gzipped) profile.proto message into
// samples. Only the fields attribution needs are read: samples (location
// ids, values), locations (line -> function id) and functions (name).
func parseProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs     []string
		raws     []rawSample
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var rs rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&rs.locs, v, b)
				case 2:
					var u []uint64
					if err := appendPacked(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						rs.vals = append(rs.vals, int64(x))
					}
				}
				return nil
			})
			raws = append(raws, rs)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		s := sample{}
		if len(rs.vals) > 0 {
			s.n = rs.vals[0]
		}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcName[fid]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fid, idx, len(strs))
				}
				s.funcs = append(s.funcs, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks the fields of one protobuf message. Varint fields arrive
// as v; length-delimited fields as b (v unset); fixed-width fields are
// skipped.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked adds a repeated varint field's value(s): one unpacked
// varint v, or a packed run in b.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
