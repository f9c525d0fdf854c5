package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark timed: a client request (a root span)
// or one call into a layer during the layer replay. Spans live only in this
// program; the server is not instrumented by them.
type span struct {
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent"` // 0 for a root span
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"` // since the log's epoch
	EndNs     int64  `json:"end_ns"`
	RequestID string `json:"request_id,omitempty"`
}

// spanLog keeps a run's spans in memory until they are written out. A nil
// log records nothing, which is the untraced run.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// reserve returns a fresh span id, so children can name a parent that has
// not ended yet.
func (l *spanLog) reserve() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// add records sp over [start, end]; sp.ID is assigned when zero.
func (l *spanLog) add(sp span, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	if sp.ID == 0 {
		sp.ID = l.reserve()
	}
	sp.StartNs, sp.EndNs = start.Sub(l.epoch).Nanoseconds(), end.Sub(l.epoch).Nanoseconds()
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
	return sp.ID
}

// do runs f as a span named name under parent.
func (l *spanLog) do(name string, parent int64, f func()) {
	start := time.Now()
	f()
	l.add(span{Name: name, Parent: parent}, start, time.Now())
}

func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes maps each span id to its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].StartNs < ks[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range ks {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count  int
	MeanMs float64 // mean duration
	SelfMs float64 // mean self time
}

func summarize(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	type acc struct {
		n         int
		dur, self int64
	}
	by := map[string]*acc{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.n++
		a.dur += s.EndNs - s.StartNs
		a.self += self[s.ID]
	}
	out := make(map[string]spanStat, len(by))
	for name, a := range by {
		out[name] = spanStat{
			Count:  a.n,
			MeanMs: float64(a.dur) / float64(a.n) / 1e6,
			SelfMs: float64(a.self) / float64(a.n) / 1e6,
		}
	}
	return out
}

// write stores the spans as bench/out/spans-<workload>.json.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Epoch    string `json:"epoch"`
		Spans    []span `json:"spans"`
	}{workload, seed, l.epoch.UTC().Format(time.RFC3339Nano), l.all()})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
