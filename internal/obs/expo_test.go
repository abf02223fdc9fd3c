package obs

import (
	"bytes"
	"strings"
	"testing"
)

func buildTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.Counter("dram_reads_total", L("scheme", "counterlight")).Add(42)
	r.Gauge("queue_depth").Set(7)
	h := r.Histogram("lat_ns")
	h.Add(3)
	h.Add(2000)
	h.Add(2000)
	h.Add(9000)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	r := buildTestRegistry(t)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE dram_reads_total counter",
		`dram_reads_total{scheme="counterlight"} 42`,
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="3"} 1`,
		`lat_ns_bucket{le="2047"} 3`,
		`lat_ns_bucket{le="9215"} 4`,
		`lat_ns_bucket{le="+Inf"} 4`,
		"lat_ns_sum 13003",
		"lat_ns_count 4",
		"# TYPE queue_depth gauge",
		"queue_depth 7",
		"",
	}, "\n")
	if buf.String() != want {
		t.Errorf("prometheus exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := buildTestRegistry(t)
	snap := r.Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Series) != len(snap.Series) {
		t.Fatalf("round trip lost series: %d -> %d", len(snap.Series), len(back.Series))
	}
	if v := back.Value("dram_reads_total", L("scheme", "counterlight")); v != 42 {
		t.Errorf("counter after round trip = %v, want 42", v)
	}
	hs, ok := back.Get("lat_ns")
	if !ok {
		t.Fatal("histogram series missing after round trip")
	}
	if hs.Kind != KindHistogram || len(hs.Counts) != 4 || hs.Counts[1] != 2 || hs.Sum != 13003 {
		t.Errorf("histogram series mangled: %+v", hs)
	}
	// A snapshotted series reads the same quantiles as the live
	// histogram.
	live := r.Histogram("lat_ns")
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if a, b := hs.Quantile(q), live.Quantile(q); a != b {
			t.Errorf("q=%v: series %d, live %d", q, a, b)
		}
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", L("path", `a"b\c`+"\n")).Inc()
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `path="a\"b\\c\n"`) {
		t.Errorf("label not escaped: %s", buf.String())
	}
}
