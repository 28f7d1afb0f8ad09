package bench

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed interval at a layer boundary. Spans sit around the
// harness's own calls into the product; spans inside the product are a
// later change.
type Span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was made
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"` // index of the causing span, -1 for a round
	Round   int32  `json:"round"`
}

// Tracer keeps spans in memory until the slice ends. A nil Tracer records
// nothing, so the untraced run pays one nil check per boundary.
type Tracer struct {
	t0    time.Time
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now(), spans: make([]Span, 0, 1<<16)} }

// Begin opens a span and returns its index.
func (t *Tracer) Begin(name string, parent int32, round int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, StartNs: int64(time.Since(t.t0)), Parent: parent, Round: int32(round)})
	return int32(len(t.spans) - 1)
}

// End closes span id.
func (t *Tracer) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
}

// Spans returns what was recorded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// WriteFile writes the spans as a JSON array.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotals sums, per span name, the duration and the self time: the
// span's duration minus what its children cover.
func spanTotals(spans []Span) (total, self map[string]int64, count map[string]int) {
	total = make(map[string]int64)
	self = make(map[string]int64)
	count = make(map[string]int)
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range spans {
		d := s.EndNs - s.StartNs
		total[s.Name] += d
		self[s.Name] += d - child[i]
		count[s.Name]++
	}
	return total, self, count
}
