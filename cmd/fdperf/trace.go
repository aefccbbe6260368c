package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call recorded by fdperf's own code: a job, a public
// call inside it, or a probe. Duration-only spans carry the driver phase
// times Discover reports in Result.Stats.Phases; they have no start or end.
type span struct {
	Workload string `json:"workload"`
	Job      int    `json:"job"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns,omitempty"` // since the tracer started
	EndNs    int64  `json:"end_ns,omitempty"`
	DurNs    int64  `json:"dur_ns"`
	durOnly  bool
}

// tracer keeps a run's spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced jobs run.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(job, parent int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Workload: t.workload, Job: job, ID: id, Parent: parent, Name: name,
		StartNs: int64(time.Since(t.t0)),
	})
	return id
}

// end closes the span opened as id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.t0))
	s.DurNs = s.EndNs - s.StartNs
}

// phase attaches a duration-only child span under parent.
func (t *tracer) phase(job, parent int, name string, d time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Workload: t.workload, Job: job, ID: len(t.spans) + 1, Parent: parent, Name: name,
		DurNs: int64(d), durOnly: true,
	})
}

// selfTimes returns each span's self time: its duration minus the part of
// it that children cover — the union of timed children clipped to the
// span's interval, plus the duration-only children. The covered part is
// capped at the span's duration, so a self time is never negative.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var covered int64
		var ivs [][2]int64
		for _, k := range kids[s.ID] {
			c := spans[k]
			if c.durOnly {
				covered += c.DurNs
				continue
			}
			lo, hi := max(c.StartNs, s.StartNs), min(c.EndNs, s.EndNs)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var curLo, curHi int64 = 0, -1
		for _, iv := range ivs {
			if iv[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = iv[0], iv[1]
				continue
			}
			curHi = max(curHi, iv[1])
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		covered = min(covered, s.DurNs)
		self[i] = time.Duration(s.DurNs - covered)
	}
	return self
}

// jobLayers sums self times by span name for every traced job, keyed by
// job id.
func jobLayers(spans []span) map[int]map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[int]map[string]time.Duration)
	for i, s := range spans {
		m := out[s.Job]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Job] = m
		}
		m[s.Name] += self[i]
	}
	return out
}

// appendSpans writes the spans as JSON lines, appending to path so the
// children of an all-workload run share one file.
func appendSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
