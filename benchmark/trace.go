package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"contractshard/internal/store"
)

// span is one traced interval. IDs start at 1; Parent 0 marks a root. Times
// are nanoseconds since the run's clock origin.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Slot   int32  `json:"slot"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is shared by the lane
// goroutines and, through the store decorator, by the p2p inbox goroutines.
// Spans are recorded only while on is set: a traced run switches it off for
// alternate groups of slots, which is how tracing overhead is measured
// inside one process (proc.trace_overhead_share).
type tracer struct {
	origin time.Time
	on     atomic.Bool
	slot   atomic.Int32
	// ambient is the span that store operations arriving on inbox goroutines
	// are parented to: the slot root until validate_settle begins, then that.
	ambient atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id, or 0 when tracing is off.
func (t *tracer) begin(name string, parent int32) int32 {
	if !t.on.Load() {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Slot: t.slot.Load(), Start: start})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration; id 0 is a no-op.
func (t *tracer) end(id int32) time.Duration {
	if id == 0 {
		return 0
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = end
	d := time.Duration(end - s.Start)
	t.mu.Unlock()
	return d
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// selfTimes computes, per span name, the summed self time: a span's duration
// minus the part of its interval its children cover. Share is the name's
// part of all self time under the given root name, so the shares of one
// tree kind sum to 1 even when lanes run children side by side.
func selfTimes(spans []span, rootName string) []selfRow {
	byID := make(map[int32]*span, len(spans))
	children := make(map[int32][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	underRoot := func(s *span) bool {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return false
			}
			s = p
		}
		return s.Name == rootName
	}
	agg := map[string]*selfRow{}
	var total float64
	for i := range spans {
		s := &spans[i]
		if !underRoot(s) {
			continue
		}
		self := float64(s.End-s.Start-covered(s, children[s.ID])) / 1e6
		r := agg[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			agg[s.Name] = r
		}
		r.Count++
		r.SelfMS += self
		total += self
	}
	rows := make([]selfRow, 0, len(agg))
	for _, r := range agg {
		if total > 0 {
			r.Share = r.SelfMS / total
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's own interval.
func covered(parent *span, kids []*span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, hi int64
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			sum += v.b - hi
			hi = v.b
		}
	}
	return sum
}

// storeStats is what one traced store saw while tracing was on.
type storeStats struct {
	appendUS, putUS []float64 // one sample per operation
	bytes           int64
}

// tracedStore decorates a miner's store.Store: while tracing is on it times
// AppendBlock and Put, counts operations and bytes, and emits a store.* span
// under the span that caused the write. With tracing off it only forwards.
type tracedStore struct {
	store.Store
	t *tracer
	// parent, when non-zero, is the producer's current node.mine span; the
	// tracer's ambient span is used otherwise.
	parent atomic.Int32

	mu sync.Mutex
	st storeStats
}

func (s *tracedStore) begin(name string) int32 {
	p := s.parent.Load()
	if p == 0 {
		p = s.t.ambient.Load()
	}
	return s.t.begin(name, p)
}

func (s *tracedStore) AppendBlock(raw []byte) error {
	id := s.begin("store.append_block")
	err := s.Store.AppendBlock(raw)
	if id != 0 {
		d := s.t.end(id)
		s.mu.Lock()
		s.st.appendUS = append(s.st.appendUS, us(d))
		s.st.bytes += int64(len(raw))
		s.mu.Unlock()
	}
	return err
}

func (s *tracedStore) Put(key string, value []byte) error {
	id := s.begin("store.put")
	err := s.Store.Put(key, value)
	if id != 0 {
		d := s.t.end(id)
		s.mu.Lock()
		s.st.putUS = append(s.st.putUS, us(d))
		s.st.bytes += int64(len(key) + len(value))
		s.mu.Unlock()
	}
	return err
}

func (s *tracedStore) stats() storeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
