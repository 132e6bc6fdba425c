package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro"
)

// validateTol absorbs the solvers' floating-point residue at box edges and
// deadlines.
const validateTol = 1e-6

// maxObjectiveRel fails a run whose served answers are, on average, worse
// than a cold reference solve of the same instances by more than this.
const maxObjectiveRel = 1 + 1e-3

// check validates one answer: the status, the wire shape, and every served
// allocation against its instance (System.Validate, plus ValidateDeadline
// in deadline mode).
func check(o *op, status int, body []byte) (answer, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", o.path, status, body)
	}
	switch o.kind {
	case opSolve:
		var out repro.ClusterSolveResponseJSON
		if err := json.Unmarshal(body, &out); err != nil {
			return nil, fmt.Errorf("%s: decoding answer: %w", o.path, err)
		}
		return checkSolved(o.inst[0], &out.SolveResponseJSON)
	case opHandoff:
		var out repro.HandoffReport
		if err := json.Unmarshal(body, &out); err != nil {
			return nil, fmt.Errorf("%s: decoding answer: %w", o.path, err)
		}
		h := o.handoff
		if out.DeviceID != h.DeviceID || out.FromCell != h.FromCell || out.ToCell != h.ToCell {
			return nil, fmt.Errorf("%s: report %+v does not match request %+v", o.path, out, *h)
		}
		return nil, nil
	case opDelta:
		var out repro.StreamUpdateJSON
		if err := json.Unmarshal(body, &out); err != nil {
			return nil, fmt.Errorf("%s: decoding update: %w", o.path, err)
		}
		if !out.OK || out.Result == nil {
			// A stale sequence number lands here too: every session is
			// bound to one sender, so any ErrStaleSeq is a server bug.
			return nil, fmt.Errorf("%s: delta seq %d refused: %s", o.path, o.seq, out.Error)
		}
		if out.Seq != o.seq {
			return nil, fmt.Errorf("%s: update answers seq %d, want %d", o.path, out.Seq, o.seq)
		}
		return checkSolved(o.inst[0], out.Result)
	case opBatch:
		var out repro.SolveBatchResponseJSON
		if err := json.Unmarshal(body, &out); err != nil {
			return nil, fmt.Errorf("%s: decoding answer: %w", o.path, err)
		}
		if len(out.Results) != len(o.inst) {
			return nil, fmt.Errorf("%s: %d results for %d instances", o.path, len(out.Results), len(o.inst))
		}
		got := make(answer, len(o.inst))
		for i, it := range out.Results {
			if !it.OK || it.Result == nil {
				return nil, fmt.Errorf("%s: item %d failed: %s", o.path, i, it.Error)
			}
			a, err := checkSolved(o.inst[i], it.Result)
			if err != nil {
				return nil, fmt.Errorf("item %d: %w", i, err)
			}
			got[i] = a[0]
		}
		return got, nil
	}
	return nil, fmt.Errorf("unknown op kind %d", o.kind)
}

// checkSolved validates one served allocation against its instance.
func checkSolved(in *instance, r *repro.SolveResponseJSON) (answer, error) {
	switch r.Source {
	case string(repro.ServeSourceCache), string(repro.ServeSourceWarm), string(repro.ServeSourceCold):
	default:
		return nil, fmt.Errorf("unknown answer source %q", r.Source)
	}
	a := repro.Allocation{Power: r.PowerW, Bandwidth: r.BandwidthHz, Freq: r.FreqHz}
	var err error
	if in.deadline > 0 {
		err = in.sys.ValidateDeadline(a, in.deadline/in.sys.GlobalRounds, validateTol)
	} else {
		err = in.sys.Validate(a, validateTol)
	}
	if err != nil {
		return nil, fmt.Errorf("served allocation: %w", err)
	}
	return answer{a}, nil
}

// objective scores sampled answers: the mean over at most limit instances of
// System.Objective of the served allocation on the true instance, divided by
// that of a cold repro.Optimize reference solve. It fails past
// maxObjectiveRel.
func objective(ops []*op, recs []*rec, limit int) (float64, error) {
	type pair struct {
		in  *instance
		got repro.Allocation
	}
	var pairs []pair
	for k, o := range ops {
		for i, in := range o.inst {
			if len(pairs) < limit && recs[k].err == nil {
				pairs = append(pairs, pair{in, recs[k].got[i]})
			}
		}
	}
	if len(pairs) == 0 {
		return 0, errors.New("objective check: no sampled answers")
	}
	ratios := make([]float64, len(pairs))
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	work := make(chan int)
	for g := 0; g < senderCount(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				p := pairs[i]
				ref, err := repro.Optimize(p.in.sys, p.in.w, referenceOptions(p.in))
				if err != nil {
					errs[i] = fmt.Errorf("objective check: reference solve: %w", err)
					continue
				}
				ratios[i] = p.in.sys.Objective(p.in.w, p.got) / p.in.sys.Objective(p.in.w, ref.Allocation)
			}
		}()
	}
	for i := range pairs {
		work <- i
	}
	close(work)
	wg.Wait()
	sum := 0.0
	for i, r := range ratios {
		if errs[i] != nil {
			return 0, errs[i]
		}
		sum += r
	}
	mean := sum / float64(len(ratios))
	if !(mean <= maxObjectiveRel) { // NaN fails too
		return mean, fmt.Errorf("objective check: served answers average %.6f of the cold reference (limit %.4f)", mean, maxObjectiveRel)
	}
	return mean, nil
}

// referenceOptions solves an instance cold, in its own mode.
func referenceOptions(in *instance) repro.Options {
	if in.deadline > 0 {
		return repro.Options{Mode: repro.ModeDeadline, TotalDeadline: in.deadline}
	}
	return repro.Options{}
}
