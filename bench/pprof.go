package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A dependency-free reader for the gzipped profile.proto that
// runtime/pprof writes: just enough to walk every sample's stack as
// function names, leaf first. It exists so the per-layer CPU and mutex
// shares need neither `go tool pprof` nor a new module requirement.

// stackSample is one profile sample: its values and its frames' function
// names, leaf first, inlined frames expanded.
type stackSample struct {
	values []int64
	funcs  []string
}

var errProfile = errors.New("bench: malformed profile")

// pbuf is a cursor over protobuf wire format.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = errProfile
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errProfile
	return 0
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil || n > uint64(len(p.b)) {
		p.err = errProfile
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// each calls f for every field of the message: varint fields with their
// value, length-delimited fields with their bytes. Fixed-width fields do
// not occur in profile.proto and are rejected.
func (p *pbuf) each(f func(field int, v uint64, b []byte)) {
	for len(p.b) > 0 && p.err == nil {
		key := p.varint()
		switch key & 7 {
		case 0:
			f(int(key>>3), p.varint(), nil)
		case 2:
			f(int(key>>3), 0, p.bytes())
		default:
			p.err = errProfile
		}
	}
}

// packed reads a repeated integer field that may arrive packed (b != nil)
// or one value at a time.
func packed(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	q := pbuf{b: b}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst
}

// parseProfile decodes a runtime/pprof profile into stack samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	top := pbuf{b: raw}
	top.each(func(field int, _ uint64, b []byte) {
		switch field {
		case 2: // sample
			var s rawSample
			m := pbuf{b: b}
			m.each(func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					s.locs = packed(s.locs, v, b)
				case 2:
					s.vals = packed(s.vals, v, b)
				}
			})
			if m.err != nil {
				top.err = m.err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			m := pbuf{b: b}
			m.each(func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // line
					l := pbuf{b: b}
					l.each(func(f int, v uint64, _ []byte) {
						if f == 1 {
							fns = append(fns, v)
						}
					})
				}
			})
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			m := pbuf{b: b}
			m.each(func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			})
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
	})
	if top.err != nil {
		return nil, top.err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{values: make([]int64, len(s.vals))}
		for i, v := range s.vals {
			ss.values[i] = int64(v)
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ss.funcs = append(ss.funcs, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

const repo = "github.com/cameo-stream/cameo"

// layerPrefixes maps a function-name prefix to the layer its time is
// charged to. Repo packages not listed (vtime, stats, profile, snap) are
// helpers: their frames are skipped and the caller's layer pays.
var layerPrefixes = []struct{ prefix, layer string }{
	{repo + "/internal/wire.", "wire"},
	{repo + "/internal/client.", "client"},
	{repo + "/internal/server.", "server"},
	{repo + "/internal/runtime.", "runtime"},
	{repo + "/internal/queue.", "queue"},
	{repo + "/internal/core.", "core"},
	{repo + "/internal/dataflow.", "dataflow"},
	{repo + "/internal/operators.", "operators"},
	{repo + "/internal/progress.", "progress"},
	{repo + "/internal/metrics.", "metrics"},
	{repo + ".", "api"},
	// The bench's own package (named by its import path in a test binary):
	// mt_spike's burn stage is operator work the bench supplies; everything
	// else is the generators and the probe.
	{"main.burn", "operators"},
	{"main.", "gen"},
	{repo + "/bench.burn", "operators"},
	{repo + "/bench.", "gen"},
}

var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination",
	"runtime.gcMarkDone", "runtime.sweepone", "runtime.scanobject",
}

var syscallFuncs = []string{
	"syscall.Syscall", "syscall.RawSyscall", "internal/runtime/syscall.Syscall6",
	"runtime/internal/syscall.Syscall6", "syscall.read", "syscall.write",
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOf charges one stack to one bucket, in this order: garbage
// collection anywhere on the stack is proc.gc; a system call made under
// package net or internal/poll is net.syscall; otherwise the innermost
// frame of a listed layer pays for everything it called (allocation, maps,
// locks, memmove); a stack with none of these is the Go scheduler, timers
// and netpoller: proc.sched.
func layerOf(funcs []string) string {
	layer, sys, net := "", false, false
	for _, f := range funcs {
		if hasPrefixAny(f, gcFuncs) {
			return "proc.gc"
		}
		if hasPrefixAny(f, syscallFuncs) {
			sys = true
		}
		if strings.HasPrefix(f, "net.") || strings.HasPrefix(f, "internal/poll.") {
			net = true
		}
		if layer == "" {
			for _, lp := range layerPrefixes {
				if strings.HasPrefix(f, lp.prefix) {
					layer = lp.layer
					break
				}
			}
		}
	}
	switch {
	case sys && net:
		return "net.syscall"
	case layer != "":
		return layer
	}
	return "proc.sched"
}

// foldProfile sums value index vi of every sample by layer.
func foldProfile(gz []byte, vi int) (map[string]float64, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		if vi < len(s.values) {
			out[layerOf(s.funcs)] += float64(s.values[vi])
		}
	}
	return out, nil
}
