package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host probe measures how fast the machine runs while a workload runs.
// On a shared virtual machine the same work takes up to 30% more CPU time
// in slow spells that outlast a run. That swing would swamp any change in
// the code. So a locked thread times a fixed standard-library kernel in
// its own CPU time every probeEvery (under 1% of one CPU), and each timing
// metric is scaled by probeRef / the mean probe time over the span it was
// measured in (the set-up phase, the window, or a slice of the window):
// reported as it would read on the reference host. Over forty runs the
// probe's window mean correlated at +0.93 to +0.98 with CPU per op and
// median latency on every workload, and scaling cut their run-to-run
// spread two- to fourfold. Queueing makes open-loop latency grow faster
// than the probe, so part of its swing remains. The kernel touches no
// repository code, so no change to the service can move it.
const (
	probeEvery = 50 * time.Millisecond
	// probeRef is the kernel's mean time on the reference host (2-vCPU
	// Intel Xeon at 2.0 GHz, Go 1.24) in an undisturbed spell.
	probeRef = 0.2 // ms
	// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID (Linux), the calling
	// thread's CPU clock at nanosecond resolution. getrusage's per-thread
	// times are tick-sampled, too coarse for a 0.2 ms kernel.
	clockThreadCPU = 3
)

// hostProbe samples the kernel's thread-CPU time until finish.
type hostProbe struct {
	stop    chan struct{}
	stopped sync.Once
	done    chan struct{}
	mu      sync.Mutex
	samples []probeSample
	sink    float64 // the kernel's results, kept live
}

type probeSample struct {
	at time.Time
	ms float64
}

func startHostProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread() // the thread's CPU clock then times only the kernel
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			at, began := time.Now(), threadCPU()
			out := probeKernel()
			ms := float64(threadCPU()-began) / float64(time.Millisecond)
			p.mu.Lock()
			p.samples = append(p.samples, probeSample{at, ms})
			p.sink += out
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the probe; mean still answers afterwards. Later calls do
// nothing.
func (p *hostProbe) finish() {
	p.stopped.Do(func() { close(p.stop) })
	<-p.done
}

// mean is the kernel's mean time in ms over the samples taken in [from, to),
// or over all samples when the interval holds none. The probe's first
// sample is taken at its start, so there is always one.
func (p *hostProbe) mean(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	sum, n := 0.0, 0
	for _, s := range p.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			sum, n = sum+s.ms, n+1
		}
	}
	if n == 0 {
		for _, s := range p.samples {
			sum += s.ms
		}
		n = len(p.samples)
	}
	return sum / float64(n)
}

func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeInts and probeBuf are the kernel's fixed input (1024 pseudo-random
// ints, a 4 KiB buffer), read-only after initialization.
var probeInts, probeBuf = func() ([]int, []byte) {
	x := uint32(12345)
	ints, buf := make([]int, 1024), make([]byte, 4096)
	for i := range ints {
		x = x*1664525 + 1013904223
		ints[i], buf[i] = int(x>>8), byte(x)
	}
	return ints, buf
}()

// probeKernel is about 0.2 ms of mixed work on the reference host: a sort
// (branches and memory), a hash (integer ALU) and a chain of exp/log (the
// floating-point work the solver does).
func probeKernel() float64 {
	s := append([]int(nil), probeInts...)
	sort.Ints(s)
	h := sha256.Sum256(probeBuf)
	x := float64(h[0]) + 1.5
	for i := 0; i < 3000; i++ {
		x = math.Log(x*x+1) + math.Exp(-x)
	}
	return x + float64(s[0])
}
