package obs

import (
	"sync"
	"time"
)

// This file is the latency-attribution half of the metrics layer: a
// pooled per-operation span that decomposes an operation's wall-clock
// latency into a fixed set of pipeline stages, each recorded into its
// own Histogram. The design constraints come from the mcpool hot
// path:
//
//   - off by default: a nil *Attributor hands out nil *Spans, and
//     every Span method is nil-safe, so disabled attribution costs
//     one nil check per call site;
//   - zero-alloc in steady state: spans are recycled through a
//     sync.Pool, and Mark/Finish touch only atomic histogram bins;
//   - exact decomposition: Finish records last-mark minus start, so
//     the per-stage durations sum to the recorded total to the
//     nanosecond, and every finished span adds exactly one sample to
//     every stage histogram — per-stage counts always equal the
//     end-to-end count (the invariant the mcpool race test asserts).

// Attributor decomposes per-operation latency into named stages. Each
// stage owns one Histogram; a separate total histogram records the
// end-to-end latency. A nil *Attributor is a valid, disabled
// attributor.
type Attributor struct {
	stages []string
	hists  []Histogram
	total  Histogram
	pool   sync.Pool
}

// NewAttributor builds an attributor with the given stage names.
func NewAttributor(stages []string) *Attributor {
	a := &Attributor{
		stages: append([]string(nil), stages...),
		hists:  make([]Histogram, len(stages)),
	}
	a.pool.New = func() any { return new(Span) }
	return a
}

// Stages returns the stage names, in mark order.
func (a *Attributor) Stages() []string {
	if a == nil {
		return nil
	}
	return append([]string(nil), a.stages...)
}

// StageHist returns stage i's histogram (nil when out of range or the
// attributor is disabled).
func (a *Attributor) StageHist(i int) *Histogram {
	if a == nil || i < 0 || i >= len(a.hists) {
		return nil
	}
	return &a.hists[i]
}

// TotalHist returns the end-to-end latency histogram.
func (a *Attributor) TotalHist() *Histogram {
	if a == nil {
		return nil
	}
	return &a.total
}

// Register exposes the attributor through a registry: one stageName
// series per stage (stage="<name>"-labelled) plus one totalName series
// labelled stage="total". Distinct metric names keep the per-stage
// and end-to-end distributions from double-counting in Prometheus
// sums. No-op on a nil attributor.
func (a *Attributor) Register(reg *Registry, stageName, totalName string, labels ...Label) {
	if a == nil {
		return
	}
	for i, st := range a.stages {
		ls := append(append([]Label(nil), labels...), L("stage", st))
		reg.RegisterHistogram(stageName, &a.hists[i], ls...)
	}
	ls := append(append([]Label(nil), labels...), L("stage", "total"))
	reg.RegisterHistogram(totalName, &a.total, ls...)
}

// Span tracks one operation through the attributor's stages. Obtain
// one with Start, call Mark once per stage in order, then Finish. A
// nil *Span no-ops everywhere.
type Span struct {
	a     *Attributor
	start time.Time
	last  time.Time
}

// Start begins a span now. Returns nil — a disabled span — when the
// attributor is nil.
func (a *Attributor) Start() *Span {
	if a == nil {
		return nil
	}
	s := a.pool.Get().(*Span)
	s.a = a
	s.start = time.Now()
	s.last = s.start
	return s
}

// Mark records the time since the previous mark (or Start) into stage
// i's histogram.
func (s *Span) Mark(i int) {
	if s == nil {
		return
	}
	now := time.Now()
	s.a.hists[i].Add(now.Sub(s.last).Nanoseconds())
	s.last = now
}

// Finish records the end-to-end latency — the span of the marks, so
// the total always equals the sum of the stage durations exactly —
// and recycles the span. The span must not be used after Finish.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	a := s.a
	a.total.Add(s.last.Sub(s.start).Nanoseconds())
	s.a = nil
	a.pool.Put(s)
}

// Discard recycles the span without recording anything — for
// operations refused before they entered the pipeline (e.g. a
// TrySubmit bounced by a full queue). The span must not be used after
// Discard.
func (s *Span) Discard() {
	if s == nil {
		return
	}
	a := s.a
	s.a = nil
	a.pool.Put(s)
}

// StageSummary is one stage's latency distribution reduced to the
// numbers a breakdown table shows. Percentiles are Histogram.Quantile
// readings: at most 1/16 above the true value, never below it.
type StageSummary struct {
	Stage  string `json:"stage"`
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P95Ns  int64  `json:"p95_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

// Summary reduces the attributor to one StageSummary per stage plus a
// final "total" row. Nil (disabled) attributors summarize to nil.
func (a *Attributor) Summary() []StageSummary {
	if a == nil {
		return nil
	}
	return SummarizeAttributors([]*Attributor{a})
}

// SummarizeAttributors merges several same-shaped attributors (e.g.
// one per mcpool shard) into one summary: per stage, the histograms
// are merged bucket by bucket before the percentiles are read. All
// attributors must share stage names; nil entries are skipped.
func SummarizeAttributors(as []*Attributor) []StageSummary {
	var ref *Attributor
	for _, a := range as {
		if a != nil {
			ref = a
			break
		}
	}
	if ref == nil {
		return nil
	}
	out := make([]StageSummary, 0, len(ref.stages)+1)
	for i, st := range ref.stages {
		out = append(out, mergeStage(st, as, func(a *Attributor) *Histogram { return &a.hists[i] }))
	}
	out = append(out, mergeStage("total", as, func(a *Attributor) *Histogram { return &a.total }))
	return out
}

// mergeStage merges one stage's histograms across attributors and
// reduces them to a StageSummary.
func mergeStage(name string, as []*Attributor, pick func(*Attributor) *Histogram) StageSummary {
	var h Histogram
	for _, a := range as {
		if a != nil {
			h.Merge(pick(a))
		}
	}
	s := StageSummary{Stage: name, Count: h.Total()}
	if s.Count > 0 {
		s.MeanNs = h.Sum() / int64(s.Count)
		s.P50Ns = h.Quantile(0.50)
		s.P95Ns = h.Quantile(0.95)
		s.P99Ns = h.Quantile(0.99)
	}
	return s
}
