package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one harness-side interval around a call into a layer. Times are
// Unix nanoseconds so spans recorded in a child process line up with the
// parent's.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the untraced runs execute.
type tracer struct {
	workload string
	spans    []span
}

// begin opens a span under parent and returns its id; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: time.Now().UnixNano()})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].EndNs = time.Now().UnixNano()
	}
}

// do runs fn inside a span under parent and returns the span's id.
func (t *tracer) do(name string, parent int, fn func()) int {
	id := t.begin(name, parent)
	fn()
	t.end(id)
	return id
}

// adopt appends spans recorded elsewhere (a child process), re-numbering
// them under parent.
func (t *tracer) adopt(parent int, child []span) {
	base := len(t.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// findSpan returns the first span called name.
func findSpan(spans []span, name string) (span, bool) {
	for _, s := range spans {
		if s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
