package main

// CPU-profile attribution for the traced run. Fleet internals have no
// public seam to time, so the traced run takes a CPU profile and gives
// each sample to the innermost repro/internal/<module> frame of its
// stack: runtime work (allocation, hashing) done on behalf of a module
// is charged to that module. Samples with no repro frame are split into
// "perfbench" (the benchmark's own client and harness) and "runtime"
// (GC, scheduler, syscalls outside any module).
//
// The profile is decoded with a minimal protobuf reader for the few
// fields attribution needs, since the standard library exposes no
// profile parser.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// productModules are the CR product's packages; harnessModules are the
// synthetic world, the decision-log plumbing and the trace tooling that
// only exist to drive or measure it.
var (
	productModules = []string{
		"smtp", "gateway", "overload", "core", "filters", "dnscache", "wal", "spool",
		"outbound", "store", "reputation", "whitelist", "greylist", "captcha", "mail",
		"mailbox", "resilience", "digest", "spf",
	}
	harnessModules = []string{"workload", "simnet", "dnssim", "rbl", "clock", "maillog", "logscan", "trace", "faults"}
)

// cpuShareNames lists every runtime.cpu_share.* metric reported.
func cpuShareNames() []string {
	names := append(append([]string{}, productModules...), harnessModules...)
	return append(names, "perfbench", "runtime", "product", "harness")
}

type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stopRaw ends the profile and returns its weighted stacks.
func (p *cpuProfile) stopRaw() ([][]string, []int64, error) {
	pprof.StopCPUProfile()
	return decodeProfile(p.buf.Bytes())
}

// moduleOf returns the module a function name belongs to: the
// repro/internal package, "perfbench" for the benchmark itself, "" else.
func moduleOf(fn string) string {
	const internal = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench") {
		return "perfbench"
	}
	return ""
}

// attribute charges each weighted stack (leaf first) to the innermost
// frame that belongs to a repro module or to the benchmark, or to
// "runtime" when none does, and adds the "product" and "harness"
// totals. Module shares sum to 1.
func attribute(stacks [][]string, weights []int64) map[string]float64 {
	shares := make(map[string]float64)
	var total float64
	for i, st := range stacks {
		w := float64(weights[i])
		total += w
		owner := "runtime"
		for _, fn := range st {
			if mod := moduleOf(fn); mod != "" {
				owner = mod
				break
			}
		}
		shares[owner] += w
	}
	if total == 0 {
		return shares
	}
	for k := range shares {
		shares[k] /= total
	}
	for _, m := range productModules {
		shares["product"] += shares[m]
	}
	for _, m := range harnessModules {
		shares["harness"] += shares[m]
	}
	return shares
}

// cpuShareLayer reports the shares as runtime.cpu_share.* metrics.
func cpuShareLayer(m metrics, shares map[string]float64) {
	for _, name := range cpuShareNames() {
		m.set("runtime.cpu_share."+name, "ratio", shares[name])
	}
}

// decodeProfile reads a gzipped pprof profile and returns every
// sample's stack as function names (leaf first, inlined frames
// expanded) with its CPU-time weight (the last sample value).
func decodeProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcName = map[uint64]int64{}    // function -> string index
		strs     []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
		return nil, nil, err
	}
	stacks := make([][]string, 0, len(samples))
	weights := make([]int64, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var st []string
		for _, l := range s.locs {
			for _, fid := range locFuncs[l] {
				if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, s.values[len(s.values)-1])
	}
	return stacks, weights, nil
}

var errProto = errors.New("malformed profile protobuf")

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as
// one value (v, data == nil) or packed (data).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
