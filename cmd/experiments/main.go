// Command experiments regenerates the figures of the paper's evaluation
// (Section VII) as plain-text tables, optionally also writing CSV files.
//
// Usage:
//
//	experiments [-fig all|2|3|4|5|6|7|8] [-trials 10] [-seed 1] [-csv DIR]
//	experiments -sweep 20 [-sweepn 15] [-sweepdrift 0.05] [-sweepdeadline 120]
//
// Each sweep point is averaged over -trials independent device draws (the
// paper uses 100; the default of 10 regenerates every qualitative shape in
// a few minutes).
//
// With -sweep S the command instead replays one drifting-gain scenario
// stream of S steps through the serving path under all three solvers
// (algorithm2, scheme1, simplified) and prints a served-objective diff
// table — the live-traffic complement of the figure sweeps.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/node"
	"repro/internal/obs"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "figure to regenerate: all, 2-8, ext, extA, extB, extC, extD, extE, extF or extG")
		trials = flag.Int("trials", 10, "random device draws averaged per sweep point")
		seed   = flag.Int64("seed", 1, "base RNG seed")
		csvDir = flag.String("csv", "", "also write <dir>/fig<id>.csv files")

		sweep         = flag.Int("sweep", 0, "replay a drifting scenario stream of this many steps through all three served solvers and diff the objectives")
		sweepN        = flag.Int("sweepn", 15, "sweep: devices per scenario")
		sweepDrift    = flag.Float64("sweepdrift", 0.05, "sweep: per-step log-normal gain drift (nepers)")
		sweepDeadline = flag.Float64("sweepdeadline", 120, "sweep: total completion-time limit for the deadline-mode comparison (s)")
		sweepRadius   = flag.Float64("sweepradius", 0.5, "sweep: placement disk radius (km); wider disks spread SNRs and separate the solvers")

		spanExport = flag.String("span-export", "", "POST the run's span to this aggregator URL (a running service's /debug/spans)")
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
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	// Graceful interrupt: figure regeneration holds no durable state, so
	// SIGINT/SIGTERM exits cleanly mid-sweep with the conventional status
	// (partially written -csv files are simply regenerated on the next run).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "experiments: received %v, exiting\n", s)
		os.Exit(130)
	}()

	// With -span-export a figure regeneration reports itself to a running
	// aggregator as a single-span trace, so long batch runs are visible on
	// the ops dashboard next to live traffic. With -debug-addr the run
	// mounts the same debug surface as the serving cmds (pprof,
	// /debug/traces, /debug/dashboard, /debug/flight, /debug/incident,
	// /metrics) — handy for profiling a long figure sweep in flight.
	tr, flush := node.Batch("experiments", *spanExport, *debugAddr)
	began := time.Now()

	var err error
	phase := "figures"
	if *sweep > 0 {
		phase = "sweep"
		err = runSweep(*sweep, *sweepN, *sweepDrift, *sweepDeadline, *sweepRadius, *seed)
	} else {
		err = run(*fig, *trials, *seed, *csvDir)
	}
	tr.RecordDur(phase, began, time.Since(began), obs.Attr{Detail: *fig})
	tr.Finish()
	flush()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(fig string, trials int, seed int64, csvDir string) error {
	cfg := repro.RunConfig{Trials: trials, Seed: seed}
	var figures []repro.Figure

	two := func(a, b repro.Figure, err error) error {
		if err != nil {
			return err
		}
		figures = append(figures, a, b)
		return nil
	}
	start := time.Now()
	switch strings.ToLower(fig) {
	case "all":
		all, err := repro.AllFigures(cfg)
		if err != nil {
			return err
		}
		figures = all
	case "2":
		if err := two(repro.Fig2(cfg)); err != nil {
			return err
		}
	case "3":
		if err := two(repro.Fig3(cfg)); err != nil {
			return err
		}
	case "4":
		if err := two(repro.Fig4(cfg)); err != nil {
			return err
		}
	case "5":
		if err := two(repro.Fig5(cfg)); err != nil {
			return err
		}
	case "6":
		if err := two(repro.Fig6(cfg)); err != nil {
			return err
		}
	case "7":
		f, err := repro.Fig7(cfg)
		if err != nil {
			return err
		}
		figures = append(figures, f)
	case "8":
		f, err := repro.Fig8(cfg)
		if err != nil {
			return err
		}
		figures = append(figures, f)
	case "ext":
		exts, err := repro.AllExtensions(cfg)
		if err != nil {
			return err
		}
		figures = exts
	case "exta":
		if err := two(repro.ExtA(cfg)); err != nil {
			return err
		}
	case "extb":
		f, err := repro.ExtB(cfg)
		if err != nil {
			return err
		}
		figures = append(figures, f)
	case "extc":
		if err := two(repro.ExtC(cfg)); err != nil {
			return err
		}
	case "extd":
		if err := two(repro.ExtD(cfg)); err != nil {
			return err
		}
	case "exte":
		f, err := repro.ExtE(cfg)
		if err != nil {
			return err
		}
		figures = append(figures, f)
	case "extf":
		f, err := repro.ExtF(cfg)
		if err != nil {
			return err
		}
		figures = append(figures, f)
	case "extg":
		if err := two(repro.ExtG(cfg)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}

	for _, f := range figures {
		fmt.Println(f.Table())
	}
	fmt.Printf("regenerated %d figure panel(s) in %v (%d trials/point, seed %d)\n",
		len(figures), time.Since(start).Round(time.Millisecond), trials, seed)

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		for _, f := range figures {
			path := filepath.Join(csvDir, "fig"+f.ID+".csv")
			file, err := os.Create(path)
			if err != nil {
				return err
			}
			werr := f.WriteCSV(file)
			cerr := file.Close()
			if werr != nil {
				return werr
			}
			if cerr != nil {
				return cerr
			}
			fmt.Println("wrote", path)
		}
	}
	return nil
}
