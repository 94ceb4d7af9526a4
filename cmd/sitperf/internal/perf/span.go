package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval of one request. Spans of a request share
// Trace, which is the ID of the request's root span on the client. Times
// are wall-clock Unix nanoseconds, so spans recorded by the load generator
// and by the server process line up.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Tier   string `json:"tier,omitempty"` // ladder tier, on robust.fallback spans
}

// Dur returns the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// serverIDs offsets span IDs handed out in the server process, so they
// never collide with the load generator's root span IDs.
const serverIDs = 1 << 62

// Recorder keeps spans in memory until they are taken at the end of a
// window. It is safe for concurrent use. Spans of trace 0, a request not
// sampled for tracing, are dropped.
type Recorder struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose IDs start after base.
func NewRecorder(base uint64) *Recorder {
	r := &Recorder{}
	r.next.Store(base)
	return r
}

// NewID reserves a span ID, so children can name a parent that has not
// ended yet.
func (r *Recorder) NewID() uint64 { return r.next.Add(1) }

// Add records a finished span covering [start, end].
func (r *Recorder) Add(trace, id, parent uint64, name string, start, end time.Time) {
	r.AddSpan(Span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
}

// AddSpan records a span.
func (r *Recorder) AddSpan(s Span) {
	if s.Trace == 0 {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Take returns the recorded spans and forgets them.
func (r *Recorder) Take() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// writeSpans writes a traced pass's spans as JSON lines to
// dir/spans-<workload>.jsonl.
func writeSpans(dir, workload string, spans []Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// SelfTimes maps each span's ID to its self time: its duration minus the
// part of its interval that its children cover. Children may overlap each
// other or stick out of the parent; only their union inside the parent
// counts.
func SelfTimes(spans []Span) map[uint64]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the kids' intervals, clipped
// to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	end := parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// SelfByName groups self times by span name.
func SelfByName(spans []Span) map[string][]time.Duration {
	self := SelfTimes(spans)
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], self[s.ID])
	}
	return out
}
