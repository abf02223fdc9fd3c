package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"counterlight/internal/cluster"
	"counterlight/internal/obs/prof"
)

// sloLoop periodically feeds the evaluator from the cluster's summed
// counters and the worst live node's submit→wait p99, so /health
// serves a rolling cluster-wide verdict while the run is live. stop()
// runs one final evaluation covering the tail window and returns it.
type sloLoop struct {
	eval     *prof.Evaluator
	cl       *cluster.Cluster
	done     chan struct{}
	finished chan struct{}
}

func newSLOLoop(e *prof.Evaluator, cl *cluster.Cluster) *sloLoop {
	return &sloLoop{
		eval: e, cl: cl,
		done: make(chan struct{}), finished: make(chan struct{}),
	}
}

func (l *sloLoop) input() prof.SLOInput {
	agg := l.cl.Aggregate()
	return prof.SLOInput{
		// The SLO grades the worst node: a cluster is as slow as the
		// controller your address happens to stripe onto.
		SubmitP99Ns:    l.cl.SubmitP99(),
		Writes:         agg.Writes,
		DegradedWrites: agg.DegradedWrites,
	}
}

func (l *sloLoop) start() {
	go func() {
		defer close(l.finished)
		ticker := time.NewTicker(500 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-l.done:
				return
			case <-ticker.C:
				l.eval.Eval(l.input())
			}
		}
	}()
}

// stop ends the loop and returns a final verdict over the window
// since the last tick (or the whole run if none fired).
func (l *sloLoop) stop() prof.Health {
	close(l.done)
	<-l.finished
	return l.eval.Eval(l.input())
}

// renderHealth formats a verdict for the end-of-run summary line:
// state plus each configured check's value against its limit.
func renderHealth(h prof.Health) string {
	var parts []string
	for _, c := range h.Checks {
		if c.Limit <= 0 {
			continue // unconfigured check; grading was disabled
		}
		switch c.Name {
		case "submit_p99_ns":
			parts = append(parts, fmt.Sprintf("%s %s/%s (%s)",
				c.Name, time.Duration(c.Value), time.Duration(c.Limit), c.State))
		default:
			parts = append(parts, fmt.Sprintf("%s %.4f/%.4f (%s)", c.Name, c.Value, c.Limit, c.State))
		}
	}
	if len(parts) == 0 {
		return h.State.String() + " (no objectives configured)"
	}
	return h.State.String() + ": " + strings.Join(parts, ", ")
}

// writeHealthJSON writes the verdict in the shape /health serves and
// clreport -health consumes.
func writeHealthJSON(path string, h prof.Health) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(h)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
