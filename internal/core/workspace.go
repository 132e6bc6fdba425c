package core

import (
	"sync"

	"repro/internal/fl"
)

// Workspace holds the scratch memory of one solver invocation so the hot
// loops of Optimize, Subproblem 1 and Subproblem 2 run allocation-free.
// A Workspace is not safe for concurrent use; give each goroutine its own
// (serving workers hold one each). The zero value is ready to use — buffers
// grow on first use and are retained across solves.
//
// Results returned by the exported solver entry points never alias a
// caller-provided Workspace except where documented (SolveSubproblem2 with
// Options.Work set returns slices that the next solve on the same Workspace
// overwrites).
type Workspace struct {
	n int

	// Optimize outer loop.
	upTimes, rmin       []float64
	prevP, prevB, prevF []float64
	freq                []float64
	metrics             fl.Metrics

	// Subproblem 2 Newton iteration.
	d                []float64
	nu, beta, nb, nn []float64
	sigma1, sigma2   []float64
	curP, curB, curG []float64
	triP, triB, triG []float64

	// Inner SP2_v2 solver.
	devs   []sp2Device
	allocs []sp2Alloc

	// Direct (reduction) solver.
	rdevs      []reducedDevice
	dirP, dirB []float64

	// lastMu carries the most recent inner clearing price within a solve;
	// it seeds the next price bisection's bracket. Reset by grow.
	lastMu float64
}

// NewWorkspace returns an empty workspace (buffers grow on first use).
func NewWorkspace() *Workspace { return &Workspace{} }

// grow sizes every buffer for n devices and resets the price seed when the
// device count changes (a price from another instance family would only
// waste the bracket probes).
func (ws *Workspace) grow(n int) {
	if ws.n != n {
		ws.lastMu = 0
	}
	ws.n = n
	ws.upTimes = growF(ws.upTimes, n)
	ws.rmin = growF(ws.rmin, n)
	ws.prevP = growF(ws.prevP, n)
	ws.prevB = growF(ws.prevB, n)
	ws.prevF = growF(ws.prevF, n)
	ws.freq = growF(ws.freq, n)
	ws.d = growF(ws.d, n)
	ws.nu = growF(ws.nu, n)
	ws.beta = growF(ws.beta, n)
	ws.nb = growF(ws.nb, n)
	ws.nn = growF(ws.nn, n)
	ws.sigma1 = growF(ws.sigma1, n)
	ws.sigma2 = growF(ws.sigma2, n)
	ws.curP = growF(ws.curP, n)
	ws.curB = growF(ws.curB, n)
	ws.curG = growF(ws.curG, n)
	ws.triP = growF(ws.triP, n)
	ws.triB = growF(ws.triB, n)
	ws.triG = growF(ws.triG, n)
	ws.dirP = growF(ws.dirP, n)
	ws.dirB = growF(ws.dirB, n)
	if cap(ws.devs) < n {
		ws.devs = make([]sp2Device, n)
	} else {
		ws.devs = ws.devs[:n]
	}
	if cap(ws.allocs) < n {
		ws.allocs = make([]sp2Alloc, n)
	} else {
		ws.allocs = ws.allocs[:n]
	}
	if cap(ws.rdevs) < n {
		ws.rdevs = make([]reducedDevice, n)
	} else {
		ws.rdevs = ws.rdevs[:n]
	}
}

// stashPrev copies the allocation into the previous-iterate buffers; paired
// with distPrev it replaces the per-iteration Clone/Distance garbage of the
// outer loop with an in-place diff.
func (ws *Workspace) stashPrev(a fl.Allocation) {
	copy(ws.prevP, a.Power)
	copy(ws.prevB, a.Bandwidth)
	copy(ws.prevF, a.Freq)
}

// distPrev returns the normalized infinity-norm distance between the
// allocation and the stashed previous iterate (the outer-loop convergence
// metric), without allocating.
func (ws *Workspace) distPrev(a fl.Allocation) float64 {
	prev := fl.Allocation{Power: ws.prevP, Bandwidth: ws.prevB, Freq: ws.prevF}
	return a.Distance(prev)
}

// growF returns a float64 slice of length n, reusing the backing array when
// it is large enough.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// wsPool recycles workspaces for solver calls that do not bring their own
// (Options.Work == nil). Only entry points that copy every returned value
// out of the workspace may use the pool.
var wsPool = sync.Pool{New: func() any { return &Workspace{} }}
