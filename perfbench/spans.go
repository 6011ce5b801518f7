package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval the benchmark timed around a call into the program:
// workload -> campaign or HTTP request -> cell -> probe call. Parent 0 is
// the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the log was created
	Dur    float64 `json:"dur_us"`
}

// spanLog keeps spans in memory until write. A nil *spanLog records
// nothing, so untraced runs pay one nil check per boundary.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished interval and returns its id (0 when disabled).
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID:     id,
		Parent: parent,
		Name:   name,
		Start:  float64(start.Sub(l.t0)) / float64(time.Microsecond),
		Dur:    float64(end.Sub(start)) / float64(time.Microsecond),
	})
	return id
}

// open starts an interval whose end is set later by close; children can
// name it as their parent meanwhile.
func (l *spanLog) open(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Now()
	return l.add(name, parent, now, now)
}

func (l *spanLog) close(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.Dur = float64(time.Since(l.t0))/float64(time.Microsecond) - s.Start
}

// write stores the spans as a JSON array at path.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rootSpan is the id of the workload span every run opens first.
const rootSpan = 1
