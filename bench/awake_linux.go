package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// Keeping the CPUs awake. On a virtual machine an idle vCPU halts and the
// host takes it off its core. To the guest's scheduler such a vCPU looks
// preempted, so a thread that wakes is put on the waker's CPU instead, and
// the sparse workloads ran in one of two states — every thread packed on
// one vCPU, or spread over all — depending on what the box had done in the
// seconds before the process started: many_tenants' lat_p95_ms was 6.2-7.0
// ms in one and 7.4-8.6 ms in the other, and its quartile spread over runs
// interleaved with other workloads 11 % (22-29 % on the benchmark driver's
// box). So for as long as it runs the benchmark keeps one child process
// per CPU spinning under SCHED_IDLE: the kernel runs such a task only when
// the CPU has nothing else, preempts it the moment anything else wakes, and
// counts a CPU that runs nothing else as idle when it places a thread. The
// vCPUs never halt, a wake-up never waits for the host to bring one back,
// and there is one placement. The children are processes, not threads: a
// spinning goroutine would hold a P and keep the collector's stop-the-world
// waiting for a thread that is, by design, the last to be given a CPU; and
// their CPU time stays out of the process's own (cpu_us_per_tuple).

const (
	awakeFlag    = "-keep-awake" // child mode: the CPU number and the parent's pid follow
	maxAwakeCPUs = 8
	schedIdle    = 5 // SCHED_IDLE
)

// allowedCPUs lists the CPUs the process may run on.
func allowedCPUs() []int {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return nil
	}
	var cpus []int
	for c := 0; c < len(mask)*64; c++ {
		if mask[c/64]&(1<<uint(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// keepAwake starts the spinners and returns the function that kills them
// and waits for each to end. Best effort: where one cannot be started the
// run goes on without it.
func keepAwake() (stop func()) {
	exe, err := os.Executable()
	cpus := allowedCPUs()
	if err != nil || len(cpus) > maxAwakeCPUs {
		return func() {}
	}
	var kids []*exec.Cmd
	for _, c := range cpus {
		cmd := exec.Command(exe, awakeFlag, strconv.Itoa(c), strconv.Itoa(os.Getpid()))
		if cmd.Start() == nil {
			kids = append(kids, cmd)
		}
	}
	return func() {
		for _, k := range kids {
			k.Process.Kill()
		}
		for _, k := range kids {
			k.Wait()
		}
		kids = nil
	}
}

// spinIdle is the child: confined to one CPU, under SCHED_IDLE, it runs
// until it is killed or the process that started it is no longer its
// parent.
func spinIdle(cpu, parent int) {
	nr, ok := sysSchedSetattr[runtime.GOARCH]
	if !ok {
		os.Exit(1)
	}
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread() // affinity and policy are the thread's
	var mask [16]uint64
	mask[cpu/64] = 1 << uint(cpu%64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		os.Exit(1)
	}
	a := schedAttr{policy: schedIdle}
	a.size = uint32(unsafe.Sizeof(a))
	if _, _, e := syscall.Syscall(nr, 0, uintptr(unsafe.Pointer(&a)), 0); e != 0 {
		os.Exit(1) // never spin at a normal priority
	}
	for os.Getppid() == parent {
		for start := time.Now(); time.Since(start) < 10*time.Millisecond; {
		}
	}
}
