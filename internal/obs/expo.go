package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promLabels renders a label set (plus an optional extra pair) in
// Prometheus {k="v",...} syntax.
func promLabels(labels map[string]string, extraKey, extraVal string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, k, escapeLabel(labels[k])))
	}
	if extraKey != "" {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, extraKey, escapeLabel(extraVal)))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a float that is almost always an integer count
// without a spurious fractional part.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4). Histograms emit cumulative
// _bucket series for their non-empty buckets, each le the bucket's
// largest value in the histogram's native unit, then le="+Inf",
// _sum and _count.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	typed := make(map[string]bool)
	for _, se := range s.Series {
		if !typed[se.Name] {
			typed[se.Name] = true
			fmt.Fprintf(bw, "# TYPE %s %s\n", se.Name, se.Kind)
		}
		switch se.Kind {
		case KindHistogram:
			var cum uint64
			for i, c := range se.Counts {
				cum += c
				le := "+Inf"
				if i < len(se.Edges) {
					le = strconv.FormatInt(se.Edges[i], 10)
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", se.Name, promLabels(se.Labels, "le", le), cum)
			}
			fmt.Fprintf(bw, "%s_sum%s %d\n", se.Name, promLabels(se.Labels, "", ""), se.Sum)
			fmt.Fprintf(bw, "%s_count%s %d\n", se.Name, promLabels(se.Labels, "", ""), uint64(se.Value))
		default:
			fmt.Fprintf(bw, "%s%s %s\n", se.Name, promLabels(se.Labels, "", ""), formatValue(se.Value))
		}
	}
	return bw.Flush()
}

// WriteJSON renders the snapshot as an indented JSON document that
// ReadSnapshot can load back (the `clreport -compare` interchange
// format).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot previously written with WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: parsing snapshot: %w", err)
	}
	return s, nil
}
