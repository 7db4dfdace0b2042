package main

// Spans of the traced pass. They are recorded from the benchmark's own files,
// around the calls into each layer; spans inside internal/ are a later change.
// Every traced op is a root span; each layer seam contributes one child span
// per op carrying its call count and summed busy time; direct drives are
// their own root spans. Spans stay in memory and are written once at exit.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one record of the trace file. A child's interval starts at its
// op's start and lasts for the layer's summed busy time over that op: the
// calls themselves are interleaved with the op's own work (and, on the
// parallel workloads, overlap each other, so children may outlast the op).
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Count    int64  `json:"count"`
}

func (s span) durNs() int64 { return s.EndNs - s.StartNs }

// recorder collects spans; it is used from the client goroutine only.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// root records a root span and returns its id.
func (r *recorder) root(name, workload string, op int, start, end time.Time, count int64) int64 {
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Name: name, Workload: workload, Op: op,
		StartNs: int64(start.Sub(r.epoch)), EndNs: int64(end.Sub(r.epoch)), Count: count,
	})
	return id
}

// child records a layer's aggregate over the op with root span parent.
func (r *recorder) child(parent int64, name string, busyNs, count int64) {
	p := r.spans[parent-1]
	r.spans = append(r.spans, span{
		ID: int64(len(r.spans) + 1), Parent: parent, Name: name, Workload: p.Workload, Op: p.Op,
		StartNs: p.StartNs, EndNs: p.StartNs + busyNs, Count: count,
	})
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
