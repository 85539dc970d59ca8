// Package timeline records which tasks executed when and renders the
// paper's "time-line visualization of processor usage" as ASCII art or
// SVG. Segments are recorded by the client as tasks start and stop;
// rendering groups them by project.
package timeline

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"bce/internal/host"
)

// Segment is one contiguous execution span of one task.
type Segment struct {
	Start, End float64
	Task       string
	Project    int
	Type       host.ProcType
	Instances  float64
}

// Recorder accumulates segments.
type Recorder struct {
	Segments []Segment
	open     map[string]*Segment
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{open: make(map[string]*Segment)}
}

// Start opens a segment for the task at time now.
func (r *Recorder) Start(now float64, task string, project int, t host.ProcType, instances float64) {
	r.open[task] = &Segment{Start: now, Task: task, Project: project, Type: t, Instances: instances}
}

// Stop closes the task's open segment at time now (no-op if none).
func (r *Recorder) Stop(now float64, task string) {
	s, ok := r.open[task]
	if !ok {
		return
	}
	delete(r.open, task)
	s.End = now
	if s.End > s.Start {
		r.Segments = append(r.Segments, *s)
	}
}

// CloseAll closes every open segment at time now (end of emulation).
// Closing happens in sorted task order: map order would append the
// final segments to Segments differently run to run, making the
// rendered ASCII/SVG text order-unstable.
func (r *Recorder) CloseAll(now float64) {
	tasks := make([]string, 0, len(r.open))
	for task := range r.open { //bce:unordered collecting keys to sort just below
		tasks = append(tasks, task)
	}
	sort.Strings(tasks)
	for _, task := range tasks {
		r.Stop(now, task)
	}
}

// Span returns the [min start, max end] of all segments.
func (r *Recorder) Span() (float64, float64) {
	if len(r.Segments) == 0 {
		return 0, 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range r.Segments {
		lo = math.Min(lo, s.Start)
		hi = math.Max(hi, s.End)
	}
	return lo, hi
}

// ASCII renders per-project occupancy rows with the given width in
// characters. Each cell shows whether the project ran anything during
// that time slice ('#' busy, '.' idle).
func (r *Recorder) ASCII(nproj, width int) string {
	lo, hi := r.Span()
	if hi <= lo || width <= 0 {
		return "(empty timeline)\n"
	}
	var b strings.Builder
	cell := (hi - lo) / float64(width)
	for p := 0; p < nproj; p++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range r.Segments {
			if s.Project != p {
				continue
			}
			i0 := int((s.Start - lo) / cell)
			i1 := int(math.Ceil((s.End - lo) / cell))
			for i := i0; i < i1 && i < width; i++ {
				if i >= 0 {
					row[i] = '#'
				}
			}
		}
		fmt.Fprintf(&b, "P%-2d |%s|\n", p, row)
	}
	fmt.Fprintf(&b, "     %-*s%s\n", width-7, fmt.Sprintf("t=%.0fs", lo), fmt.Sprintf("t=%.0fs", hi))
	return b.String()
}

var palette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// SVG renders the timeline as lanes per processor type, with one band
// per running task colored by project.
func (r *Recorder) SVG(width, laneHeight int) string {
	lo, hi := r.Span()
	var b strings.Builder
	if hi <= lo {
		return `<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"></svg>`
	}
	// Assign each segment a row within its processor-type lane using
	// greedy interval packing.
	type lane struct {
		rows [][]Segment // per row, sorted segments
	}
	lanes := map[host.ProcType]*lane{}
	segs := append([]Segment(nil), r.Segments...)
	// Tie-break equal starts by task name so the emitted SVG text is
	// byte-stable regardless of recording order.
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].Start != segs[j].Start {
			return segs[i].Start < segs[j].Start
		}
		return segs[i].Task < segs[j].Task
	})
	rowOf := make([]int, len(segs))
	for i, s := range segs {
		l := lanes[s.Type]
		if l == nil {
			l = &lane{}
			lanes[s.Type] = l
		}
		placed := false
		for ri := range l.rows {
			row := l.rows[ri]
			if len(row) == 0 || row[len(row)-1].End <= s.Start+1e-9 {
				l.rows[ri] = append(row, s)
				rowOf[i] = ri
				placed = true
				break
			}
		}
		if !placed {
			l.rows = append(l.rows, []Segment{s})
			rowOf[i] = len(l.rows) - 1
		}
	}

	// Stable lane ordering: CPU, NVIDIA, ATI.
	var totalRows int
	laneBase := map[host.ProcType]int{}
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		if l, ok := lanes[t]; ok {
			laneBase[t] = totalRows
			totalRows += len(l.rows)
		}
	}
	h := totalRows*laneHeight + 30
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="10">`, width, h)
	fmt.Fprintln(&b)
	scale := float64(width-80) / (hi - lo)
	for i, s := range segs {
		y := (laneBase[s.Type] + rowOf[i]) * laneHeight
		x := 70 + float64((s.Start-lo)*scale)
		w := (s.End - s.Start) * scale
		color := palette[((s.Project%len(palette))+len(palette))%len(palette)]
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s P%d [%.0f,%.0f]</title></rect>`,
			x, y+2, math.Max(w, 0.5), laneHeight-4, color, s.Task, s.Project, s.Start, s.End)
		fmt.Fprintln(&b)
	}
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		if base, ok := laneBase[t]; ok {
			fmt.Fprintf(&b, `<text x="2" y="%d">%s</text>`, base*laneHeight+12, t)
			fmt.Fprintln(&b)
		}
	}
	fmt.Fprintf(&b, `<text x="70" y="%d">t=%.0fs</text><text x="%d" y="%d" text-anchor="end">t=%.0fs</text>`,
		h-8, lo, width-4, h-8, hi)
	fmt.Fprintln(&b, `</svg>`)
	return b.String()
}
