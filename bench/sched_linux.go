package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// schedAttr is struct sched_attr of sched_setattr(2), through its first
// version (48 bytes).
type schedAttr struct {
	size     uint32
	policy   uint32
	flags    uint64
	nice     int32
	priority uint32
	runtime  uint64
	deadline uint64
	period   uint64
}

// sysSchedSetattr is the sched_setattr system call number, which package
// syscall does not carry; architectures not listed go without.
var sysSchedSetattr = map[string]uintptr{"amd64": 314, "arm64": 274, "riscv64": 274}

// shortSlices asks the kernel for the shortest time slice (100 µs) on
// every thread of the process; threads created later inherit it. Two
// engine workers and two generators share what may be a 2-vCPU box. With
// the default 3 ms slice a thread that wakes — a generator at its tick, or
// any Go thread handed a goroutine — waits for a saturated worker's slice
// to end: on mt_spike the generators' p99 lateness was 2-4 ms, and calls
// into the engine stalled for up to 16 ms. With short slices a waking
// thread's deadline is the earliest and it runs at once (0.7-0.9 ms p99);
// CPU per tuple did not move. Needs no privilege; kernels before 6.12
// ignore or refuse the request, which is harmless.
func shortSlices() {
	nr, ok := sysSchedSetattr[runtime.GOARCH]
	if !ok {
		return
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		a := schedAttr{runtime: 100_000}
		a.size = uint32(unsafe.Sizeof(a))
		syscall.Syscall(nr, uintptr(tid), uintptr(unsafe.Pointer(&a)), 0) // best effort
	}
}
