// Command clcheck drives the differential verification harness: seeded
// random programs (reads, writes, mode flips, injected faults) are run
// on every engine variant and checked op-by-op against the reference
// oracle, with cross-variant differential comparison on top. The same
// driver runs the concurrent, crash and cluster campaigns. Diverging
// classic and crash runs are minimized to replayable repro tokens.
//
// Usage:
//
//	clcheck -seeds 64 -j 8
//	clcheck -campaign faults.json -tokens repros.txt
//	clcheck -repro Y2xrMQZhZXMxMjgB...
//	clcheck -seeds 4 -schemes
//	clcheck -concurrent -seeds 32     # racing submitters through the sharded pool
//	clcheck -crash -seeds 200         # crash-injection campaign over the NVM engine
//	clcheck -crash-break -seeds 20    # teeth check: broken recovery must be caught
//	clcheck -cluster -seeds 20        # cluster chaos campaign: kill/restart a node mid-traffic
//	clcheck -cluster-break -seeds 8   # teeth check: broken node recovery must be caught
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"

	"counterlight/internal/check"
	"counterlight/internal/figures"
	"counterlight/internal/obs"
	"counterlight/internal/obs/flight"
)

// config is one resolved clcheck invocation.
type config struct {
	mode    string // classic, concurrent, crash, cluster or repro
	spec    check.CampaignSpec
	kind    check.Kind
	ring    *flight.Ring
	jobs    int
	schemes bool

	repro, flightPath, metricsPath, tokensPath string
}

// modeFlags select clcheck's mutually exclusive modes; the -break
// variants select the same mode as their campaign flag.
var modeFlags = []struct{ flag, mode string }{
	{"repro", "repro"},
	{"concurrent", "concurrent"},
	{"crash", "crash"}, {"crash-break", "crash"},
	{"cluster", "cluster"}, {"cluster-break", "cluster"},
}

// scope lists the modes each mode-specific flag applies to.
var scope = map[string][]string{
	"nodes":    {"cluster"},
	"schemes":  {"classic"},
	"campaign": {"classic"},
	"flight":   {"concurrent", "crash", "cluster"},
}

// verdicts are each mode's ok lines: a clean campaign, and a teeth
// check that caught its armed bug on %d run(s).
var verdicts = map[string][2]string{
	"classic":    {"zero divergences", "known-bad campaign diverged on %d run(s), minimized, and verified as expected"},
	"concurrent": {"zero divergences between concurrent and serialized execution", ""},
	"crash":      {"every recovery was bit-identical to the never-crashed oracle", "broken recovery caught on %d run(s) and minimized to replayable tokens"},
	"cluster":    {"every kill/restart replayed bit-identically and no acknowledged write was lost", "broken node recovery caught on %d run(s)"},
}

func main() {
	c, err := parse(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: %v\n", err)
		os.Exit(2)
	}
	if c.mode == "repro" {
		os.Exit(replayToken(c.repro, os.Stdout))
	}
	os.Exit(c.run(os.Stdout))
}

// parse resolves the command line into one mode and, for campaign
// modes, the spec and kind to run. Conflicting mode flags, and
// mode-specific flags given to another mode, are errors.
func parse(args []string) (config, error) {
	fs := flag.NewFlagSet("clcheck", flag.ExitOnError)
	seeds := fs.Int("seeds", 16, "number of generated programs (seed-start, seed-start+1, ...)")
	seedStart := fs.Int64("seed-start", 1, "first program seed")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "max concurrent program checks")
	ops := fs.Int("ops", 0, "ops per generated program (0 = the campaign's generator default)")
	blocks := fs.Uint("blocks", 0, "address-space blocks per program (0 = the campaign's generator default)")
	faultRate := fs.Float64("fault-rate", 0, "per-op fault injection probability (0 = the campaign's generator default)")
	campaignFile := fs.String("campaign", "", "load a classic campaign spec from this JSON file; -seeds, -seed-start, -ops, -blocks and -fault-rate given explicitly override its values")
	repro := fs.String("repro", "", "replay one repro token instead of running a campaign")
	concurrent := fs.Bool("concurrent", false, "run the concurrent differential campaign: race each program through the sharded mcpool engine, then verify every response against a serialized replay in each shard journal's apply order")
	crash := fs.Bool("crash", false, "run the crash-injection campaign: each program runs on the NVM persistence engine, power fails at a seed-derived step, and the recovered state is diffed against a never-crashed oracle")
	crashBreak := fs.Bool("crash-break", false, "run the crash campaign with the intentional recovery bug armed; it must be caught (teeth check, exit 0 iff a verified minimized divergence was found)")
	clusterMode := fs.Bool("cluster", false, "run the cluster chaos campaign: each program races through a multi-node cluster while a node is killed and restarted mid-traffic, then the full acknowledged history is verified bit-identical")
	clusterBreak := fs.Bool("cluster-break", false, "run the cluster campaign with the intentional recovery bug armed on restarts; it must be caught (teeth check, exit 0 iff divergences were found)")
	nodes := fs.Int("nodes", 2, "with -cluster: controller nodes in the chaos cluster")
	flightPath := fs.String("flight", "", "with -concurrent, -crash or -cluster: write the flight recorder dump to this path when a divergence is found")
	schemes := fs.Bool("schemes", false, "also sweep every timing scheme's Result invariants over the seeds")
	metricsPath := fs.String("metrics", "", "write a Prometheus-text snapshot of the campaign counters to this file")
	tokensPath := fs.String("tokens", "", "write minimized repro tokens (one per line) to this file on divergence")
	fs.Parse(args)

	c := config{mode: "classic", jobs: *jobs, schemes: *schemes, repro: *repro,
		flightPath: *flightPath, metricsPath: *metricsPath, tokensPath: *tokensPath}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	on := map[string]bool{"repro": *repro != "", "concurrent": *concurrent, "crash": *crash,
		"crash-break": *crashBreak, "cluster": *clusterMode, "cluster-break": *clusterBreak}
	modeFlag := ""
	for _, m := range modeFlags {
		switch {
		case !on[m.flag]:
		case modeFlag == "":
			c.mode, modeFlag = m.mode, m.flag
		case m.mode != c.mode:
			return c, fmt.Errorf("-%s and -%s are mutually exclusive", modeFlag, m.flag)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(set)) {
		modes, scoped := scope[name]
		switch {
		case c.mode == "repro" && name != "repro":
			return c, fmt.Errorf("-%s cannot be combined with -repro", name)
		case !scoped || slices.Contains(modes, c.mode):
		case modeFlag != "":
			return c, fmt.Errorf("-%s cannot be combined with -%s", name, modeFlag)
		default:
			return c, fmt.Errorf("-%s applies only with -%s", name, strings.Join(modes, ", -"))
		}
	}
	if c.mode == "repro" {
		return c, nil
	}

	if c.flightPath != "" {
		// One shared ring across the campaign: divergences annotate it
		// and the newest window of activity around the failure is what
		// gets dumped.
		c.ring = flight.NewRing(4096)
	}
	spec := check.DefaultCampaign(*seeds, *seedStart)
	switch c.mode {
	case "classic":
		c.kind = check.ClassicKind()
		if *campaignFile != "" {
			var err error
			if spec, err = check.LoadCampaign(*campaignFile); err != nil {
				return c, err
			}
			if set["seeds"] {
				spec.Seeds = *seeds
			}
			if set["seed-start"] {
				spec.SeedStart = *seedStart
			}
		}
	case "concurrent":
		c.kind = check.ConcurrentKind(check.ConcurrentConfig{Flight: c.ring})
	case "crash":
		c.kind = check.CrashKind(*crashBreak, c.ring)
		spec.ExpectDivergence = *crashBreak
	case "cluster":
		if *nodes < 2 {
			return c, fmt.Errorf("-nodes must be at least 2: the chaos campaign kills a node (got %d)", *nodes)
		}
		c.kind = check.ClusterKind(check.ClusterConfig{Nodes: *nodes, Chaos: true, BreakRecovery: *clusterBreak, Flight: c.ring})
		spec.ExpectDivergence = *clusterBreak
	}
	if c.mode != "classic" {
		spec.Name = c.kind.Name
	}
	if set["ops"] {
		spec.Ops = *ops
	}
	if set["blocks"] {
		spec.Blocks = uint32(*blocks)
	}
	if set["fault-rate"] {
		spec.FaultRate = *faultRate
	}
	c.spec = spec
	return c, spec.Validate()
}

// run executes the campaign, prints its summary, failures and verdict
// to w, writes the tokens, metrics and flight artifacts, and returns
// the exit code: 0 when the campaign met its expectation.
func (c config) run(w io.Writer) int {
	pool := figures.NewRunner(true)
	pool.Workers = c.jobs
	reg := obs.NewRegistry()
	report, err := check.RunCampaign(c.spec, c.kind, pool, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: %s: %v\n", c.mode, err)
		return 1
	}

	fmt.Fprintf(w, "campaign %q: %d programs, %d ops", c.spec.Name, report.Programs, report.Ops)
	if s := counts(c.kind, report.Counts); s != "" {
		fmt.Fprintf(w, ", %s", s)
	}
	fmt.Fprintln(w)
	var tokens []string
	for _, f := range report.Failures {
		fmt.Fprintf(w, "seed %d [%s]: DIVERGED at op %d [%s]: %s\n", f.Seed, f.Variant, f.Div.OpIndex, f.Div.Kind, f.Div.Detail)
		if f.Token != "" {
			state := "UNVERIFIED"
			if f.Verified {
				state = "verified"
			}
			fmt.Fprintf(w, "  minimized repro (%s): clcheck -repro %s\n", state, f.Token)
			tokens = append(tokens, f.Token)
		}
	}

	var errs []error
	if c.tokensPath != "" && len(tokens) > 0 {
		errs = append(errs, os.WriteFile(c.tokensPath, []byte(strings.Join(tokens, "\n")+"\n"), 0o644))
	}
	if c.metricsPath != "" {
		errs = append(errs, writeMetrics(c.metricsPath, reg))
	}
	if c.ring != nil && len(report.Failures) > 0 {
		err := c.ring.DumpFile(c.flightPath)
		if err == nil {
			fmt.Fprintf(w, "wrote flight dump (%d events, %d evicted) to %s\n", c.ring.Recorded(), c.ring.Evicted(), c.flightPath)
		}
		errs = append(errs, err)
	}

	exit := 0
	verdict := verdicts[c.mode]
	switch {
	case report.OK() && c.spec.ExpectDivergence:
		fmt.Fprintf(w, "ok: "+verdict[1]+"\n", len(report.Failures))
	case report.OK():
		fmt.Fprintf(w, "ok: %s\n", verdict[0])
	case c.spec.ExpectDivergence:
		fmt.Fprintln(w, "FAIL: the campaign's armed bug produced no verified divergence — the harness has no teeth")
		exit = 1
	default:
		fmt.Fprintf(w, "FAIL: %d diverging run(s)\n", len(report.Failures))
		exit = 1
	}
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "clcheck: %v\n", err)
			exit = 1
		}
	}
	if c.schemes && schemeSweep(c.spec.Seeds, c.spec.SeedStart, pool, w) != 0 {
		exit = 1
	}
	return exit
}

// counts renders a kind's counters as "N desc, N desc".
func counts(k check.Kind, m map[string]uint64) string {
	parts := make([]string, len(k.Counters))
	for i, c := range k.Counters {
		parts[i] = fmt.Sprintf("%d %s", m[c.Name], c.Desc)
	}
	return strings.Join(parts, ", ")
}

// replayToken parses and replays one repro token through check.Recheck
// (the predicate campaigns shrink and verify against), reporting
// whether the recorded divergence still reproduces. Exit 1 on
// divergence (the failure is live), 0 when the program runs clean
// (fixed), 2 on a bad token.
func replayToken(token string, w io.Writer) int {
	r, err := check.ParseToken(token)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: bad token: %v\n", err)
		return 2
	}
	kind := check.ClassicKind()
	fmt.Fprintf(w, "replaying: variant %s, eccOff %v, seed %d, %d ops, %d blocks",
		r.Variant, r.ECCOff, r.Program.Seed, len(r.Program.Ops), r.Program.Blocks)
	if r.Crash {
		kind = check.CrashKind(r.BreakRecovery, nil)
		fmt.Fprintf(w, ", crash step %d, break-recovery %v", r.CrashStep, r.BreakRecovery)
	}
	fmt.Fprintln(w)
	out, err := check.Recheck(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: %v\n", err)
		return 2
	}
	if out.Div != nil {
		fmt.Fprintf(w, "DIVERGED at op %d [%s]: %s\n", out.Div.OpIndex, out.Div.Kind, out.Div.Detail)
		return 1
	}
	fmt.Fprintf(w, "clean: %s — divergence no longer reproduces\n", counts(kind, out.Counts))
	return 0
}

// schemeSweep runs the timing-scheme invariant checks over the same
// seed range and reports issues; returns 1 if any were found.
func schemeSweep(n int, start int64, pool *figures.Runner, w io.Writer) int {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = start + int64(i)
	}
	issues, err := check.SchemeSweep(seeds, pool)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clcheck: schemes: %v\n", err)
		return 1
	}
	if len(issues) == 0 {
		fmt.Fprintf(w, "ok: scheme sweep clean over %d seed(s)\n", n)
		return 0
	}
	for _, iss := range issues {
		fmt.Fprintf(w, "scheme %s seed %d: %s\n", iss.Scheme, iss.Seed, iss.Detail)
	}
	return 1
}

// writeMetrics writes one Prometheus exposition of the campaign
// counters.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = reg.Snapshot().WritePrometheus(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
