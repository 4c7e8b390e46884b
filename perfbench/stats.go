package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest accumulates a canonical rendering of a run's answers.
type digest struct{ lines []string }

func (d *digest) add(format string, args ...any) {
	d.lines = append(d.lines, fmt.Sprintf(format, args...))
}

func (d *digest) sum() string {
	h := sha256.New()
	for _, l := range d.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d:%s", len(d.lines), hex.EncodeToString(h.Sum(nil)[:16]))
}

// setupRepeats is how many times each workload sets up per run;
// setup_s reports their median, so one slow start does not move it.
const setupRepeats = 3

// refNominalMS is what one host-reference pass costs on an unloaded
// 2-CPU x86-64 host; setup_s is scaled to it.
const refNominalMS = 0.75

// setupRefSamples is how many host-reference passes follow each
// set-up.
const setupRefSamples = 32

// repeatSetup runs setup setupRepeats times, tearing down every
// instance but the last, and returns the last instance with its
// set-up time: the median CPU seconds of the set-ups, scaled by the
// host reference timed after each to a host where one pass costs
// refNominalMS, so that a host running slower for a while does not
// read as a slower set-up. The first set-up is timed from process
// start, so process start-up counts.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var inst T
	var times []float64
	var host *hostRef
	for i := 0; i < setupRepeats; i++ {
		var t0 time.Duration
		if i > 0 {
			t0 = cpuTime()
		}
		var err error
		inst, err = setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, (cpuTime() - t0).Seconds())
		if host == nil {
			host = newHostRef()
		}
		for range setupRefSamples {
			host.sample()
		}
		if i < setupRepeats-1 {
			teardown(inst)
			// Return the torn-down instance's memory before the next
			// set-up grows the heap again, so peak RSS reflects one
			// instance, not two.
			runtime.GC()
		}
	}
	return inst, quantile(times, 0.5) * refNominalMS / host.ms(), nil
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC
// CPU accounting.
type runtimeSample struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// runtimeMetrics fills the runtime.* metrics for the interval between
// two samples that covered ops operations.
func runtimeMetrics(m map[string]float64, before, after runtimeSample, ops int) {
	m["runtime.alloc_bytes_per_op"] = ratio(after.allocBytes-before.allocBytes, float64(ops))
	m["runtime.gc_cpu_fraction"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
}
