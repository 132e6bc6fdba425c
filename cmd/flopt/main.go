// Command flopt generates a random FL deployment with the paper's default
// parameters and runs the proposed resource-allocation algorithm on it,
// printing the per-device allocation and the aggregate energy/latency
// accounting.
//
// Usage:
//
//	flopt [-n 50] [-radius 0.25] [-seed 1] [-w1 0.5] [-pmax 12] [-fmax 2e9]
//	      [-deadline 0] [-verbose]
//
// With -deadline T > 0 the optimizer minimizes energy under the fixed total
// completion time T seconds (the Figs. 7-8 setting); otherwise it minimizes
// the weighted objective w1*E + (1-w1)*T.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/node"
	"repro/internal/obs"
)

func main() {
	var (
		n          = flag.Int("n", 50, "number of devices")
		radius     = flag.Float64("radius", 0.25, "placement disk radius (km)")
		seed       = flag.Int64("seed", 1, "RNG seed for the device draw")
		w1         = flag.Float64("w1", 0.5, "energy weight w1 in [0,1]; w2 = 1-w1")
		pmaxDBm    = flag.Float64("pmax", 12, "maximum transmit power (dBm)")
		fmaxHz     = flag.Float64("fmax", 2e9, "maximum CPU frequency (Hz)")
		deadline   = flag.Float64("deadline", 0, "fixed total completion time in seconds (0 = weighted mode)")
		verbose    = flag.Bool("verbose", false, "print the per-device allocation table and solver trace")
		spanExport = flag.String("span-export", "", "POST the run's solve span to this aggregator URL (a running service's /debug/spans)")
		debugAddr  = flag.String("debug-addr", "", "optional debug listen address (net/http/pprof + /debug/traces + /debug/dashboard + /debug/flight + /debug/incident + /metrics)")
		logLevel   = flag.String("log-level", "info", "structured log level (debug|info|warn|error)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		version    = flag.Bool("version", false, "print build/version info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString())
		return
	}
	if _, err := obs.SetupDefault(os.Stderr, *logLevel, *logJSON); err != nil {
		fmt.Fprintln(os.Stderr, "flopt:", err)
		os.Exit(1)
	}

	// Graceful interrupt: a batch run holds no durable state, so SIGINT/
	// SIGTERM just exits cleanly with the conventional 128+SIGINT status.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "flopt: received %v, exiting\n", s)
		os.Exit(130)
	}()

	// With -span-export the one-shot solve still participates in the
	// telemetry plane: its solve span ships to a running aggregator, where
	// batch runs show up next to the serving traffic they compete with.
	// With -debug-addr the run also mounts the same debug surface as the
	// serving cmds (pprof, /debug/traces, /debug/dashboard, /debug/flight,
	// /debug/incident, /metrics).
	tr, flush := node.Batch("flopt", *spanExport, *debugAddr)
	defer flush()

	if err := run(*n, *radius, *seed, *w1, *pmaxDBm, *fmaxHz, *deadline, *verbose, tr); err != nil {
		fmt.Fprintln(os.Stderr, "flopt:", err)
		os.Exit(1)
	}
}

func run(n int, radius float64, seed int64, w1, pmaxDBm, fmaxHz, deadline float64, verbose bool, tr *obs.Trace) error {
	sc := repro.DefaultScenario()
	sc.N = n
	sc.RadiusKm = radius
	sc.PMaxDBm = pmaxDBm
	sc.FMaxHz = fmaxHz
	s, err := sc.Build(rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}

	opts := repro.Options{}
	w := repro.Weights{W1: w1, W2: 1 - w1}
	if deadline > 0 {
		opts.Mode = repro.ModeDeadline
		opts.TotalDeadline = deadline
		w = repro.Weights{W1: 1, W2: 0}
	}
	began := time.Now()
	res, err := repro.Optimize(s, w, opts)
	if err != nil {
		return err
	}
	tr.RecordDur("solve", began, time.Since(began), obs.Attr{Detail: "flopt", Value: int64(n)})
	tr.Finish()

	m := res.Metrics
	fmt.Printf("devices: %d, radius: %g km, seed: %d\n", n, radius, seed)
	if deadline > 0 {
		fmt.Printf("mode: deadline-constrained (T = %g s)\n", deadline)
	} else {
		fmt.Printf("mode: weighted (w1 = %g, w2 = %g)\n", w.W1, w.W2)
	}
	fmt.Printf("objective:            %.6g\n", res.Objective)
	fmt.Printf("total energy:         %.6g J (transmission %.6g J, computation %.6g J)\n",
		m.TotalEnergy, m.TransEnergy, m.CompEnergy)
	fmt.Printf("total completion:     %.6g s (%.6g s/round x %g rounds)\n",
		m.TotalTime, m.RoundTime, s.GlobalRounds)
	fmt.Printf("outer iterations:     %d (converged: %t)\n", len(res.Iterations), res.Converged)

	if verbose {
		fmt.Println()
		fmt.Print(res.Summary())
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "dev\tp (mW)\tB (kHz)\tf (MHz)\trate (kbit/s)\tT_up (ms)\tT_cmp (ms)")
		for i := range s.Devices {
			fmt.Fprintf(tw, "%d\t%.3f\t%.1f\t%.1f\t%.1f\t%.2f\t%.2f\n",
				i,
				res.Allocation.Power[i]*1e3,
				res.Allocation.Bandwidth[i]/1e3,
				res.Allocation.Freq[i]/1e6,
				m.Rates[i]/1e3,
				m.UploadTimes[i]*1e3,
				m.CompTimes[i]*1e3)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
