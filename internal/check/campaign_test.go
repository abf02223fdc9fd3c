package check

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The known-bad campaign must report the same failures, shrink the
// same seeds and print the same tokens at any worker count: failures
// are sorted by (seed, variant) and exactly the lowest maxShrink of
// them carry verified tokens.
func TestCampaignShrinkDeterministic(t *testing.T) {
	spec, err := LoadCampaign("testdata/knownbad.json")
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		Seed           int64
		Variant, Token string
	}
	var runs [][]key
	for _, workers := range []int{1, 8} {
		report, err := RunCampaign(spec, ClassicKind(), pool(workers), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Failures) <= maxShrink {
			t.Fatalf("%d workers: %d failures, want more than %d to exercise the shrink cap",
				workers, len(report.Failures), maxShrink)
		}
		var keys []key
		for i, f := range report.Failures {
			if i > 0 && f.Seed < report.Failures[i-1].Seed {
				t.Errorf("%d workers: failures not sorted by seed: %d after %d", workers, f.Seed, report.Failures[i-1].Seed)
			}
			if shrunk := f.Token != ""; shrunk != (i < maxShrink) {
				t.Errorf("%d workers: failure %d (seed %d) shrunk=%v, want the lowest %d seeds shrunk",
					workers, i, f.Seed, shrunk, maxShrink)
			}
			if f.Token != "" && !f.Verified {
				t.Errorf("%d workers: seed %d token not verified", workers, f.Seed)
			}
			keys = append(keys, key{f.Seed, f.Variant, f.Token})
		}
		runs = append(runs, keys)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("failures differ between 1 and 8 workers:\n%v\n%v", runs[0], runs[1])
	}
}

// A campaign file comes from outside the program: typos and
// out-of-range values are errors, not silent defaults.
func TestLoadCampaignValidates(t *testing.T) {
	cases := []struct {
		name, json, want string // want "" means the file loads
	}{
		{"valid", `{"name": "ok", "ops": 50, "fault_rate": 0.5}`, ""},
		{"misspelled field", `{"expect_divergance": true}`, "expect_divergance"},
		{"negative seeds", `{"seeds": -1}`, "seeds"},
		{"negative ops", `{"ops": -5}`, "ops"},
		{"fault rate above one", `{"fault_rate": 1.5}`, "fault rate"},
		{"negative fault rate", `{"fault_rate": -0.1}`, "fault rate"},
		{"unknown fault kind", `{"fault_kinds": ["cosmic-ray"]}`, "cosmic-ray"},
		{"unknown variant", `{"variants": ["aes512"]}`, "aes512"},
		{"not an object", `[1, 2]`, "campaign"},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "campaign.json")
		if err := os.WriteFile(path, []byte(c.json), 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := LoadCampaign(path)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want == "" && spec.Seeds != 16:
			t.Errorf("%s: seeds defaulted to %d, want 16", c.name, spec.Seeds)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}
