package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	knownbad := filepath.Join("..", "..", "internal", "check", "testdata", "knownbad.json")
	cases := []struct {
		name  string
		args  []string
		want  []string // flags the error must name; nil means args are valid
		check func(t *testing.T, c config)
	}{
		{name: "default", args: nil, check: func(t *testing.T, c config) {
			if c.mode != "classic" || c.spec.Name != "default" || c.spec.Seeds != 16 || c.spec.SeedStart != 1 {
				t.Errorf("default campaign resolved to mode %s spec %+v", c.mode, c.spec)
			}
		}},
		{name: "crash takes generator flags", args: []string{"-crash", "-ops", "5", "-blocks", "8", "-fault-rate", "0.5"}, check: func(t *testing.T, c config) {
			if c.kind.Name != "crash" || c.spec.Name != "crash" || c.spec.Ops != 5 || c.spec.Blocks != 8 || c.spec.FaultRate != 0.5 {
				t.Errorf("crash campaign resolved to kind %q spec %+v", c.kind.Name, c.spec)
			}
		}},
		{name: "crash-break is a teeth check", args: []string{"-crash", "-crash-break"}, check: func(t *testing.T, c config) {
			if c.mode != "crash" || !c.spec.ExpectDivergence || c.kind.Shrink == nil {
				t.Errorf("crash-break resolved to mode %s spec %+v", c.mode, c.spec)
			}
		}},
		{name: "cluster-break with nodes", args: []string{"-cluster-break", "-nodes", "3", "-flight", "f.json"}, check: func(t *testing.T, c config) {
			if c.mode != "cluster" || !c.spec.ExpectDivergence || c.ring == nil {
				t.Errorf("cluster-break resolved to mode %s spec %+v", c.mode, c.spec)
			}
		}},
		{name: "campaign file with overrides", args: []string{"-campaign", knownbad, "-seeds", "2", "-ops", "40"}, check: func(t *testing.T, c config) {
			if c.spec.Name != "knownbad-ecc-off" || c.spec.Seeds != 2 || c.spec.Ops != 40 || c.spec.SeedStart != 1 || !c.spec.ExpectDivergence {
				t.Errorf("knownbad with overrides resolved to %+v", c.spec)
			}
		}},
		{name: "repro", args: []string{"-repro", "tok"}, check: func(t *testing.T, c config) {
			if c.mode != "repro" || c.repro != "tok" {
				t.Errorf("repro resolved to mode %s", c.mode)
			}
		}},
		{name: "concurrent and crash", args: []string{"-concurrent", "-crash"}, want: []string{"-concurrent", "-crash"}},
		{name: "crash-break and cluster", args: []string{"-crash-break", "-cluster"}, want: []string{"-crash-break", "-cluster"}},
		{name: "repro and campaign mode", args: []string{"-repro", "tok", "-cluster-break"}, want: []string{"-repro", "-cluster-break"}},
		{name: "repro and seeds", args: []string{"-repro", "tok", "-seeds", "3"}, want: []string{"-seeds", "-repro"}},
		{name: "nodes with concurrent", args: []string{"-concurrent", "-nodes", "3"}, want: []string{"-nodes", "-concurrent"}},
		{name: "schemes with cluster", args: []string{"-cluster", "-schemes"}, want: []string{"-schemes", "-cluster"}},
		{name: "campaign with crash", args: []string{"-crash", "-campaign", knownbad}, want: []string{"-campaign", "-crash"}},
		{name: "flight on classic", args: []string{"-flight", "f.json"}, want: []string{"-flight", "-concurrent"}},
		{name: "one-node chaos", args: []string{"-cluster", "-nodes", "1"}, want: []string{"-nodes"}},
		{name: "negative seeds", args: []string{"-seeds", "-1"}, want: []string{"seeds"}},
		{name: "fault rate out of range", args: []string{"-concurrent", "-fault-rate", "1.5"}, want: []string{"fault rate"}},
		{name: "missing campaign file", args: []string{"-campaign", "does-not-exist.json"}, want: []string{"does-not-exist.json"}},
	}
	for _, c := range cases {
		cfg, err := parse(c.args)
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.name, err)
				continue
			}
			c.check(t, cfg)
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", c.name, err, w)
			}
		}
	}
}

// -ops reaches the crash campaign's generator (it used to be dropped,
// running the 400-op default), and the metrics land under the crash
// names with the crash label.
func TestCrashCampaignHonorsOps(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "crash.prom")
	c, err := parse([]string{"-crash", "-ops", "5", "-seeds", "2", "-j", "2", "-metrics", metrics})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := c.run(&out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.HasPrefix(out.String(), `campaign "crash": 4 programs,`) {
		t.Errorf("summary line: %q", out.String())
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		var ops int
		if n, _ := fmt.Sscanf(line, `check_crash_ops_total{campaign="crash"} %d`, &ops); n == 1 {
			// Bursts and double faults may append a few ops past the target.
			if ops > 4*16 {
				t.Errorf("4 programs ran %d ops: -ops 5 was ignored", ops)
			}
			return
		}
	}
	t.Fatalf("no check_crash_ops_total in metrics:\n%s", data)
}
