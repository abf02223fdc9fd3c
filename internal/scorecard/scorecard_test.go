package scorecard

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"counterlight/internal/figures"
)

func TestCheckGrades(t *testing.T) {
	c := Check{Paper: 1.0, Measured: 1.01, Tolerance: 0.02}
	if !c.Pass() || c.Grade() != "PASS" {
		t.Errorf("within tolerance: %v %s", c.Pass(), c.Grade())
	}
	c.Measured = 1.03
	if c.Pass() || c.Grade() != "CLOSE" {
		t.Errorf("within 2x tolerance: %v %s", c.Pass(), c.Grade())
	}
	c.Measured = 1.10
	if c.Grade() != "DEVIATES" {
		t.Errorf("far out: %s", c.Grade())
	}
	c.Measured = math.NaN()
	if c.Grade() != "MISSING" || c.Pass() {
		t.Errorf("NaN: %v %s", c.Pass(), c.Grade())
	}
}

func TestReportString(t *testing.T) {
	r := Report{Checks: []Check{
		{Figure: "FigX", Metric: "m", Paper: 1, Measured: 1, Tolerance: 0.1, Note: "n"},
		{Figure: "FigY", Metric: "m2", Paper: 2, Measured: 9, Tolerance: 0.1},
	}}
	s := r.String()
	if !strings.Contains(s, "PASS") || !strings.Contains(s, "DEVIATES") {
		t.Errorf("rendering:\n%s", s)
	}
	if r.Passed() != 1 {
		t.Errorf("passed = %d", r.Passed())
	}
}

func TestParseNum(t *testing.T) {
	if v := parseNum("0.25"); v != 0.25 {
		t.Errorf("plain = %v", v)
	}
	if v := parseNum("36.0%"); math.Abs(v-0.36) > 1e-12 {
		t.Errorf("percent = %v", v)
	}
	if !math.IsNaN(parseNum("n/a")) {
		t.Error("garbage should be NaN")
	}
}

func TestExtractors(t *testing.T) {
	f := figures.Figure{
		Columns: []string{"workload", "perf", "util"},
		Rows: [][]string{
			{"omnetpp", "0.500", "96.0%"},
			{"mean", "0.900", "22.0%"},
		},
	}
	if v := meanOf(f, "perf"); v != 0.9 {
		t.Errorf("meanOf perf = %v", v)
	}
	if v := meanOf(f, "util"); math.Abs(v-0.22) > 1e-12 {
		t.Errorf("meanOf util = %v", v)
	}
	if !math.IsNaN(meanOf(f, "nope")) {
		t.Error("missing column should be NaN")
	}
	if v := cellOf(f, "omnetpp", "perf"); v != 0.5 {
		t.Errorf("cellOf = %v", v)
	}
	if !math.IsNaN(cellOf(f, "ghost", "perf")) {
		t.Error("missing row should be NaN")
	}
}

// The full scorecard is exercised end to end in quick mode; on this
// simulator most checks should pass or land close.
func TestBuildQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment matrix")
	}
	r := figures.NewRunner(true)
	r.Workers = runtime.GOMAXPROCS(0) // parallelism never changes a figure
	rep, err := Build(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) < 12 {
		t.Fatalf("only %d checks", len(rep.Checks))
	}
	bad := 0
	for _, c := range rep.Checks {
		t.Logf("%-7s %-42s paper=%.3f measured=%.3f %s", c.Figure, c.Metric, c.Paper, c.Measured, c.Grade())
		if c.Grade() == "DEVIATES" || c.Grade() == "MISSING" {
			bad++
		}
	}
	if bad > len(rep.Checks)/3 {
		t.Errorf("%d/%d checks deviate", bad, len(rep.Checks))
	}
}
