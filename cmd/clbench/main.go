// Command clbench regenerates the paper's tables and figures on the
// simulator and prints them as text tables.
//
// Usage:
//
//	clbench                 # run everything (paper order)
//	clbench -fig 16         # one figure: 3, 5, 8, 9, 16..23, A (no-switch ablation), M (memo ablation), T (Table I)
//	clbench -quick          # halved measurement windows (~2x faster)
//	clbench -j 8            # up to 8 concurrent simulations per sweep
//	clbench -v              # log each simulation as it starts
//	clbench -serve :8080    # watch the sweep live in a browser
//	clbench -snapshots out/ # one metrics-JSON snapshot per simulated cell
//	clbench -bench-json BENCH_1.json  # pinned perf suite -> schema-versioned snapshot
//	clbench -bench-json out.json -bench-quick  # reduced windows (CI smoke)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"counterlight/internal/core"
	"counterlight/internal/figures"
	"counterlight/internal/obs"
	"counterlight/internal/obs/serve"
	"counterlight/internal/trace"
)

func main() {
	figFlag := flag.String("fig", "", "figure to regenerate (3,5,8,9,16,17,18,19,20,21,22,23,A,M,T,E); empty = all")
	quick := flag.Bool("quick", false, "halve the simulation windows")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations per sweep (1 = serial)")
	verbose := flag.Bool("v", false, "log each simulation run")
	serveAddr := flag.String("serve", "", "serve live telemetry over HTTP on this address while the sweep runs (e.g. :8080)")
	snapshots := flag.String("snapshots", "", "write one metrics-JSON snapshot per simulated cell into this directory (clreport -compare input)")
	benchJSON := flag.String("bench-json", "", "run the pinned perf suite and write a BENCH-schema snapshot to this path (clreport -bench-compare input)")
	benchQuick := flag.Bool("bench-quick", false, "with -bench-json: reduced measurement windows for CI smoke runs")
	flag.Parse()

	if *benchJSON != "" {
		os.Exit(runBenchJSON(*benchJSON, *benchQuick))
	}

	r := figures.NewRunner(*quick)
	r.Workers = *jobs
	if *verbose {
		r.Log = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	var observers []func(trace.Workload, *core.Config) func(core.Result, error)
	if *serveAddr != "" {
		srv := serve.New()
		addr, err := srv.ListenAndServe(*serveAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clbench: -serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "clbench: serving live telemetry on http://%s\n", addr)
		observers = append(observers, srv.Pool().Observe)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // exiting anyway
		}()
	}
	if *snapshots != "" {
		sw, err := newSnapshotWriter(*snapshots)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clbench: -snapshots: %v\n", err)
			os.Exit(1)
		}
		observers = append(observers, sw.observe)
	}
	r.Observe = combineObservers(observers)

	start := time.Now()
	defer func() { sweepSummary(r, *jobs, time.Since(start)) }()

	gens := map[string]func() (figures.Figure, error){
		"3":  r.Sec3Micro,
		"5":  r.Fig5,
		"8":  r.Fig8,
		"9":  r.Fig9,
		"16": r.Fig16,
		"17": r.Fig17,
		"18": r.Fig18,
		"19": r.Fig19,
		"20": r.Fig20,
		"21": r.Fig21,
		"22": r.Fig22,
		"23": r.Fig23,
		"A":  r.AblationNoSwitch,
		"M":  r.AblationMemo,
		"T":  func() (figures.Figure, error) { return figures.TableI(), nil },
		"E":  func() (figures.Figure, error) { return figures.SecIVE(0) },
	}

	if *figFlag != "" {
		gen, ok := gens[*figFlag]
		if !ok {
			fmt.Fprintf(os.Stderr, "clbench: unknown figure %q\n", *figFlag)
			os.Exit(2)
		}
		fig, err := gen()
		if err != nil {
			fmt.Fprintf(os.Stderr, "clbench: %v\n", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(fig.CSV())
		} else {
			fmt.Println(fig)
		}
		return
	}

	all, err := r.All()
	if err != nil {
		fmt.Fprintf(os.Stderr, "clbench: %v\n", err)
		os.Exit(1)
	}
	for _, fig := range all {
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", fig.ID, fig.Title, fig.CSV())
		} else {
			fmt.Println(fig)
		}
	}
}

// combineObservers folds several Runner.Observe hooks into one (nil
// when there are none).
func combineObservers(hooks []func(trace.Workload, *core.Config) func(core.Result, error)) func(trace.Workload, *core.Config) func(core.Result, error) {
	switch len(hooks) {
	case 0:
		return nil
	case 1:
		return hooks[0]
	}
	return func(w trace.Workload, cfg *core.Config) func(core.Result, error) {
		dones := make([]func(core.Result, error), 0, len(hooks))
		for _, h := range hooks {
			if done := h(w, cfg); done != nil {
				dones = append(dones, done)
			}
		}
		return func(res core.Result, err error) {
			for _, d := range dones {
				d(res, err)
			}
		}
	}
}

// snapshotWriter dumps each completed simulation's metrics registry as
// one JSON snapshot file per cell: <scheme>__<workload>__bw<GBs>.json,
// with a -2, -3, ... suffix when a sweep revisits the same cell under
// a different knob (threshold, AES width, ...).
type snapshotWriter struct {
	dir  string
	mu   sync.Mutex
	seen map[string]int
}

func newSnapshotWriter(dir string) (*snapshotWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &snapshotWriter{dir: dir, seen: make(map[string]int)}, nil
}

func (sw *snapshotWriter) observe(w trace.Workload, cfg *core.Config) func(core.Result, error) {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewObserver(0)
	}
	reg := cfg.Obs.Metrics
	base := fmt.Sprintf("%s__%s__bw%g", cfg.Scheme, w.Name, cfg.BandwidthGBs)
	sw.mu.Lock()
	sw.seen[base]++
	if n := sw.seen[base]; n > 1 {
		base = fmt.Sprintf("%s-%d", base, n)
	}
	sw.mu.Unlock()
	path := filepath.Join(sw.dir, base+".json")

	return func(_ core.Result, err error) {
		if err != nil {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = reg.Snapshot().WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "clbench: snapshot %s: %v\n", path, err)
		}
	}
}

// sweepSummary reports the sweep's cost from the runner's metrics
// registry: how many simulations ran, their cumulative wall time, and
// the effective parallelism (cumulative / elapsed — the speedup over a
// serial sweep when the workers have real cores to run on).
func sweepSummary(r *figures.Runner, jobs int, elapsed time.Duration) {
	snap := r.Metrics().Snapshot()
	runs := snap.Value("figures_runs_total")
	simSec := snap.Value("figures_run_wall_ns_total") / 1e9
	if runs == 0 || elapsed <= 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "clbench: %.0f simulations, %.1fs simulate time in %.1fs wall (%.2fx effective parallelism, -j %d)\n",
		runs, simSec, elapsed.Seconds(), simSec/elapsed.Seconds(), jobs)
}
