package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The timed end-to-end metrics are CPU time, which leaves out time a
// thread waits to run and, on a virtual machine whose kernel accounts
// steal time, time the hypervisor gives to other guests. How fast a
// shared host runs a CPU-second still drifts by ten percent and more
// over minutes, with the load on the cores and memory the guest does
// not see. So each run also times a fixed piece of work that shares no
// code with the program, interleaved with the operations, and reports
// an operation's CPU time as a multiple of that reference's median
// (unit "ref"). Both move together when the host slows; only the
// program's own cost moves the ratio.

const (
	clockProcessCPUTimeID = 2 // Linux CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTimeID  = 3 // Linux CLOCK_THREAD_CPUTIME_ID
)

func clockGettime(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// cpuTime is the CPU time all of the process's threads have used
// since it started. The timed metrics read it around operations that
// run one at a time, so the difference is that operation's cost,
// garbage collection included.
func cpuTime() time.Duration { return clockGettime(clockProcessCPUTimeID) }

// hostRef is the reference work and the CPU times it took in one run.
// The work allocates nothing, so the program's heap and collector do
// not change what it costs. It mixes the kinds of work the program
// does: map updates and a sort over data a first, untimed pass has
// brought into the caches, then a pointer chase through a 16 MB
// table that misses them, as the simulator's event structures do.
// The chase carries on where the last one stopped, so every pass
// walks lines it has not touched for a while. The chase is about half
// of a pass: timed apart over six runs each of predict and search,
// the operations' raw CPU time followed the compute part closely and
// the chase part at about a third of its weight, and this mix left
// the least spread in the ratio.
type hostRef struct {
	chase   []uint32
	at      uint32 // where the next chase starts
	keys    []int
	scratch []int
	m       map[int]int
	sink    int
	samples []float64 // thread CPU ms per timed pass
}

const (
	refChaseLen = 1 << 22
	refKeys     = 4096
	refSteps    = 2560
)

func newHostRef() *hostRef {
	rng := rand.New(rand.NewPCG(1, 2))
	h := &hostRef{
		chase:   make([]uint32, refChaseLen),
		keys:    make([]int, refKeys),
		scratch: make([]int, refKeys),
		m:       make(map[int]int, refKeys),
	}
	// One cycle through every slot, in random order.
	perm := rng.Perm(refChaseLen)
	for i, p := range perm {
		h.chase[p] = uint32(perm[(i+1)%refChaseLen])
	}
	for i := range h.keys {
		h.keys[i] = rng.Int()
	}
	return h
}

func (h *hostRef) compute() {
	clear(h.m)
	for i, k := range h.keys {
		h.m[k%(2*refKeys)] += i
	}
	copy(h.scratch, h.keys)
	slices.Sort(h.scratch)
	h.sink += len(h.m) + h.scratch[0]
}

// sample runs one untimed and one timed pass on the calling thread.
func (h *hostRef) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	h.compute()
	t0 := clockGettime(clockThreadCPUTimeID)
	h.compute()
	p := h.at
	for range refSteps {
		p = h.chase[p]
	}
	h.at = p
	h.samples = append(h.samples, ms(clockGettime(clockThreadCPUTimeID)-t0))
}

// ms is the reference's median CPU time per pass in milliseconds.
func (h *hostRef) ms() float64 { return quantile(h.samples, 0.5) }

// rel expresses a CPU time in milliseconds in units of the
// reference's median.
func (h *hostRef) rel(cpuMS float64) float64 { return ratio(cpuMS, h.ms()) }

// heapLiveMB is the Go heap the run still holds after full
// collections: what its caches and set-up keep resident. Callers
// keep their set-up alive past the call and let the host reference
// go before it. Unlike the
// process's peak resident size it does not depend on where in the
// run the collector happened to start. The second collection frees
// what sync.Pools kept through the first.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
