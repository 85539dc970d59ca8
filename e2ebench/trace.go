package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id (0 when off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose ends were timed by the caller, such as from
// sending a request to the arrival of a server-sent event.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// durations returns the lengths in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfMS returns, for every span named name, its length minus the
// part of it that its child spans cover, in milliseconds.
func (t *tracer) selfMS(name string) []float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// write saves the spans as JSON for offline inspection.
func (t *tracer) write(path string, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// probe is the instrumentation of one traced pass beyond spans: a CPU
// profile and the allocation counters.
type probe struct {
	buf    bytes.Buffer
	before runtime.MemStats
}

func startProbe() (*probe, error) {
	p := &probe{}
	runtime.ReadMemStats(&p.before)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// probeResult is what a traced pass measured besides its spans.
type probeResult struct {
	profile []byte             // the CPU profile, gzipped pprof
	shares  map[string]float64 // CPU-profile share per layer
	allocs  uint64             // heap objects allocated
	bytes   uint64             // heap bytes allocated
}

func (p *probe) stop() (probeResult, error) {
	pprof.StopCPUProfile()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	counts, err := layerSamples(p.buf.Bytes())
	if err != nil {
		return probeResult{}, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	shares := map[string]float64{}
	for layer, n := range counts {
		if total > 0 {
			shares[layer] = float64(n) / float64(total)
		}
	}
	return probeResult{
		profile: p.buf.Bytes(),
		shares:  shares,
		allocs:  after.Mallocs - p.before.Mallocs,
		bytes:   after.TotalAlloc - p.before.TotalAlloc,
	}, nil
}

// addShares sets <layer>.cpu_share for every named layer and folds the
// remaining modules into other.cpu_share.
func addShares(m map[string]float64, shares map[string]float64) {
	named := map[string]bool{}
	for _, l := range cpuLayers {
		named[l] = true
		m[l+".cpu_share"] = shares[l]
	}
	other := 0.0
	for l, v := range shares {
		if !named[l] {
			other += v
		}
	}
	m["other.cpu_share"] = other
}
