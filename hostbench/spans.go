package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names the module a span's self time is charged to. The empty
// layer is the remainder: time the traced run was busy that no module's
// span covers.
type Layer string

const (
	layerNone        Layer = ""
	layerWorkload    Layer = "workload"
	layerTrace       Layer = "trace"
	layerSim         Layer = "sim"
	layerPrefetch    Layer = "prefetch"
	layerMultiprog   Layer = "multiprog"
	layerSweep       Layer = "sweep"
	layerStore       Layer = "store"
	layerExperiments Layer = "experiments"
	layerReport      Layer = "report"
	// layerWait marks a lane blocked on other lanes (a parallel phase seen
	// from the goroutine that started it): neither busy nor anyone's self
	// time.
	layerWait Layer = "wait"
)

// layers lists the module layers in report order.
var layers = []Layer{layerWorkload, layerTrace, layerSim, layerPrefetch, layerMultiprog,
	layerSweep, layerStore, layerExperiments, layerReport}

// Span is one timed call into a layer. Start and End are nanoseconds since
// the traced run began. Parent is -1 for the run's root. A span's children
// on its own lane are nested inside it; children on other lanes are the
// work of a parallel phase it waited for.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  Layer  `json:"layer,omitempty"`
	Lane   int    `json:"lane"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Agg marks a span that sums many short calls inside its parent (the
	// OnMiss calls of one chunk): Start is the parent's start and the
	// duration is the sum, not an interval that was observed whole.
	Agg bool `json:"agg,omitempty"`
}

// Recorder collects the spans of one traced run in memory. Each goroutine
// records through its own Lane; lanes are merged when the run ends.
type Recorder struct {
	t0    time.Time
	next  atomic.Int64 // span ids
	mu    sync.Mutex   // guards lanes
	lanes []*Lane
}

// NewRecorder starts the run clock.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.t0)) }

// Lane returns a new lane whose root spans hang under parent (a span id
// of another lane, or -1).
func (r *Recorder) Lane(parent int) *Lane {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := &Lane{rec: r, id: len(r.lanes), root: parent, shard: -1}
	r.lanes = append(r.lanes, l)
	return l
}

func (r *Recorder) newID() int { return int(r.next.Add(1) - 1) }

// Lane records the spans of one goroutine. Spans nest: Begin opens a
// child of the innermost open span, End closes it.
type Lane struct {
	rec   *Recorder
	id    int
	root  int
	shard int
	spans []Span
	open  []int // indices into spans
}

// SetShard tags the spans begun from now on with a shard id (-1 for none).
func (l *Lane) SetShard(id int) { l.shard = id }

func (l *Lane) parent() int {
	if n := len(l.open); n > 0 {
		return l.spans[l.open[n-1]].ID
	}
	return l.root
}

// Begin opens a span and returns its id.
func (l *Lane) Begin(name string, layer Layer) int {
	id := l.rec.newID()
	l.spans = append(l.spans, Span{ID: id, Parent: l.parent(), Name: name, Layer: layer,
		Lane: l.id, Shard: l.shard, Start: l.rec.now(), End: -1})
	l.open = append(l.open, len(l.spans)-1)
	return id
}

// End closes the innermost open span.
func (l *Lane) End() {
	n := len(l.open)
	l.spans[l.open[n-1]].End = l.rec.now()
	l.open = l.open[:n-1]
}

// Time runs f inside a span.
func (l *Lane) Time(name string, layer Layer, f func()) {
	l.Begin(name, layer)
	defer l.End()
	f()
}

// Agg records a summed child of the innermost open span: dur nanoseconds
// spread over many calls made inside it, capped at the time the parent has
// been open.
func (l *Lane) Agg(name string, layer Layer, dur int64) {
	p := l.spans[l.open[len(l.open)-1]]
	dur = min(dur, l.rec.now()-p.Start)
	if dur <= 0 {
		return
	}
	l.spans = append(l.spans, Span{ID: l.rec.newID(), Parent: p.ID, Name: name, Layer: layer,
		Lane: l.id, Shard: l.shard, Start: p.Start, End: p.Start + dur, Agg: true})
}

// Spans merges every lane's spans in id order. Call it after all lanes
// have finished.
func (r *Recorder) Spans() []Span {
	var out []Span
	for _, l := range r.lanes {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Account is the traced run's time budget: busy time split into each
// layer's self time plus the remainder no layer covers.
type Account struct {
	Wall        float64           // seconds from the first span to the last
	Busy        float64           // lane-seconds spent inside non-wait spans
	Self        map[Layer]float64 // seconds
	Unaccounted float64
	// Remainder lists the spans whose self time makes up Unaccounted,
	// by name.
	Remainder map[string]float64
	// ByName sums self time per span name (seconds).
	ByName map[string]float64
	// Dur sums whole durations per span name (seconds).
	Dur map[string]float64
}

// accountFor computes self times: a span's duration minus the children on
// its own lane. Summed over every span this telescopes to the lane-time
// inside root spans; wait spans are excluded, so the total is busy time.
func accountFor(spans []Span) Account {
	a := Account{Self: map[Layer]float64{}, Remainder: map[string]float64{},
		ByName: map[string]float64{}, Dur: map[string]float64{}}
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	self := make([]int64, len(spans))
	var lo, hi int64 = -1, 0
	for i, s := range spans {
		d := s.End - s.Start
		self[i] += d
		if p, ok := idx[s.Parent]; ok && spans[p].Lane == s.Lane {
			self[p] -= d
		}
		if !s.Agg {
			if lo < 0 || s.Start < lo {
				lo = s.Start
			}
			if s.End > hi {
				hi = s.End
			}
		}
	}
	for i, s := range spans {
		sec := float64(self[i]) / 1e9
		a.Dur[s.Name] += float64(s.End-s.Start) / 1e9
		if s.Layer == layerWait {
			continue
		}
		a.Busy += sec
		a.ByName[s.Name] += sec
		if s.Layer == layerNone {
			a.Unaccounted += sec
			a.Remainder[s.Name] += sec
		} else {
			a.Self[s.Layer] += sec
		}
	}
	a.Wall = float64(hi-lo) / 1e9
	return a
}

// writeSpans writes the spans and the machine header as one JSON document.
func writeSpans(path string, hdr Header, workload string, seed uint64, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Header   Header `json:"header"`
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []Span `json:"spans"`
	}{hdr, workload, seed, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
