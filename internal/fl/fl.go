// Package fl models the federated-learning deployment of the paper (Section
// III): N devices attached to one base station over FDMA, each holding D_n
// samples, spending c_n CPU cycles per sample, and uploading d_n bits per
// global round. It provides the energy and completion-time accounting
// (equations (1)–(7)), the Allocation type holding the decision variables
// (p, B, f), feasibility validation, and the weighted objective (8).
package fl

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidSystem is returned by System.Check for malformed parameters.
var ErrInvalidSystem = errors.New("fl: invalid system parameters")

// ErrInfeasibleAllocation is returned by Validate for allocations that break
// a constraint of problem (8).
var ErrInfeasibleAllocation = errors.New("fl: infeasible allocation")

// Device holds the static parameters of a single participating device.
type Device struct {
	// Samples is D_n, the number of local training samples.
	Samples float64
	// CyclesPerSample is c_n, CPU cycles needed per sample per local
	// iteration.
	CyclesPerSample float64
	// UploadBits is d_n, the size of one model upload in bits.
	UploadBits float64
	// Gain is g_n, the linear channel power gain to the base station.
	Gain float64
	// FMin and FMax bound the CPU frequency in Hz (constraint (8b)).
	FMin, FMax float64
	// PMin and PMax bound the transmit power in watts (constraint (8a)).
	PMin, PMax float64
}

// CyclesPerIteration returns c_n * D_n, the CPU cycles of one local
// iteration over the device's full dataset.
func (d Device) CyclesPerIteration() float64 { return d.CyclesPerSample * d.Samples }

// System is a complete FL deployment: the device population plus the shared
// wireless and training constants.
type System struct {
	// Devices is the set N of participating devices.
	Devices []Device
	// Bandwidth is B, the total uplink bandwidth in Hz (constraint (8c)).
	Bandwidth float64
	// N0 is the noise power spectral density in W/Hz.
	N0 float64
	// Kappa is the effective switched capacitance of the device CPUs.
	Kappa float64
	// LocalIters is R_l, local iterations per global round.
	LocalIters float64
	// GlobalRounds is R_g, the number of global aggregation rounds.
	GlobalRounds float64
}

// N returns the number of devices.
func (s *System) N() int { return len(s.Devices) }

// Check validates the static parameters.
func (s *System) Check() error {
	if s.N() == 0 {
		return fmt.Errorf("fl: no devices: %w", ErrInvalidSystem)
	}
	if !(s.Bandwidth > 0) || !(s.N0 > 0) || !(s.Kappa > 0) ||
		!(s.LocalIters > 0) || !(s.GlobalRounds > 0) {
		return fmt.Errorf("fl: non-positive shared constant: %w", ErrInvalidSystem)
	}
	for i, d := range s.Devices {
		switch {
		case !(d.Samples > 0), !(d.CyclesPerSample > 0), !(d.UploadBits > 0), !(d.Gain > 0):
			return fmt.Errorf("fl: device %d has non-positive data/channel parameter: %w", i, ErrInvalidSystem)
		case !(d.FMin > 0) || d.FMin > d.FMax:
			return fmt.Errorf("fl: device %d frequency box [%g,%g]: %w", i, d.FMin, d.FMax, ErrInvalidSystem)
		case !(d.PMin > 0) || d.PMin > d.PMax:
			return fmt.Errorf("fl: device %d power box [%g,%g]: %w", i, d.PMin, d.PMax, ErrInvalidSystem)
		}
	}
	return nil
}

// Weights are the objective weights (w1, w2) of problem (8); they must be
// nonnegative and sum to 1.
type Weights struct {
	// W1 multiplies total energy.
	W1 float64
	// W2 multiplies total completion time.
	W2 float64
}

// Check validates the weight pair. The comparisons are negated so a NaN
// weight, for which every comparison is false, is rejected too.
func (w Weights) Check() error {
	if !(w.W1 >= 0) || !(w.W2 >= 0) || !(math.Abs(w.W1+w.W2-1) <= 1e-9) {
		return fmt.Errorf("fl: weights (%g,%g) must be nonnegative and sum to 1: %w", w.W1, w.W2, ErrInvalidSystem)
	}
	return nil
}

// Allocation holds the per-device decision variables of problem (8).
type Allocation struct {
	// Power is p_n in watts.
	Power []float64
	// Bandwidth is B_n in Hz.
	Bandwidth []float64
	// Freq is f_n in Hz.
	Freq []float64
}

// NewAllocation allocates zeroed slices for n devices.
func NewAllocation(n int) Allocation {
	return Allocation{
		Power:     make([]float64, n),
		Bandwidth: make([]float64, n),
		Freq:      make([]float64, n),
	}
}

// Clone deep-copies the allocation.
func (a Allocation) Clone() Allocation {
	out := NewAllocation(len(a.Power))
	copy(out.Power, a.Power)
	copy(out.Bandwidth, a.Bandwidth)
	copy(out.Freq, a.Freq)
	return out
}

// Distance returns the infinity-norm distance between two allocations with
// each variable normalized by its own scale, the convergence metric of
// Algorithm 2's outer loop.
func (a Allocation) Distance(b Allocation) float64 {
	var m float64
	acc := func(x, y float64) {
		scale := math.Max(math.Abs(x), math.Abs(y))
		if scale == 0 {
			return
		}
		if d := math.Abs(x-y) / scale; d > m {
			m = d
		}
	}
	for i := range a.Power {
		acc(a.Power[i], b.Power[i])
		acc(a.Bandwidth[i], b.Bandwidth[i])
		acc(a.Freq[i], b.Freq[i])
	}
	return m
}
