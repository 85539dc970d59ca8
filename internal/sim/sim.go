// Package sim provides the discrete-event simulation kernel used by the
// BOINC client emulator. Time is a float64 count of seconds from the start
// of the emulation. Events are callbacks scheduled at absolute times;
// events scheduled for the same instant fire in the order they were
// scheduled, which keeps emulations deterministic for a fixed seed.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"bce/internal/invariant"
)

// Timer is a handle to a scheduled event. A timer is pending exactly
// while it sits in the event heap; firing and Cancel both take it out,
// after which Cancel is a no-op and Move panics.
type Timer struct {
	at     float64
	seq    uint64
	fn     func()
	index  int  // heap index while pending, -1 once fired or cancelled
	pooled bool // no caller holds a handle; recycle after firing
}

// At returns the absolute simulation time the timer is set for.
func (t *Timer) At() float64 { return t.at }

type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// Simulator is a single-threaded discrete-event scheduler.
// The zero value is ready to use and starts at time 0.
type Simulator struct {
	now    float64
	seq    uint64
	events eventHeap
	nfired uint64

	// free recycles Timer structs. Only timers provably unreferenced by
	// callers enter it: Post* timers (no handle was ever returned) and
	// explicitly Recycle()d handles. At/After/Post all draw from it, so
	// a steady-state event loop stops allocating timers entirely.
	free []*Timer
}

// New returns a simulator starting at time 0.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulation time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Fired returns the number of events that have been dispatched.
func (s *Simulator) Fired() uint64 { return s.nfired }

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now()) panics: it indicates a logic error in the model.
func (s *Simulator) At(t float64, fn func()) *Timer {
	return s.schedule(t, fn, false)
}

// After schedules fn to run d seconds from now.
func (s *Simulator) After(d float64, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, fn, false)
}

// Post schedules fn to run d seconds from now, fire-and-forget: no
// handle is returned, so the timer cannot be cancelled, and its struct
// is recycled after firing. Use it for the self-rescheduling chains
// that dominate an emulation's event count.
func (s *Simulator) Post(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, fn, true)
}

func (s *Simulator) schedule(t float64, fn func(), pooled bool) *Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling at NaN")
	}
	var tm *Timer
	if n := len(s.free); n > 0 {
		tm = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*tm = Timer{at: t, seq: s.seq, fn: fn, pooled: pooled}
	} else {
		tm = &Timer{at: t, seq: s.seq, fn: fn, pooled: pooled}
	}
	s.seq++
	heap.Push(&s.events, tm)
	return tm
}

// recycle resets a timer nobody references and pushes it on the
// freelist. The fn reference is dropped so captured state can be
// collected even while the struct sits in the pool.
func (s *Simulator) recycle(t *Timer) {
	*t = Timer{index: -1}
	s.free = append(s.free, t)
}

// Recycle returns a timer handle to the simulator's pool. The caller
// promises to drop the handle: after Recycle the Timer may be reused
// by any later At/After/Post call. A pending timer is cancelled first;
// recycling nil is a no-op.
func (s *Simulator) Recycle(t *Timer) {
	if t == nil {
		return
	}
	if t.index >= 0 {
		heap.Remove(&s.events, t.index)
	}
	s.recycle(t)
}

// Move reschedules a pending timer to absolute time at, keeping its
// callback but taking a fresh sequence number — same-time ordering
// behaves exactly as if the timer had been cancelled and rescheduled.
// Moving a fired or cancelled timer panics: the caller's bookkeeping
// is wrong, and silently rescheduling it would double-fire the
// callback.
func (s *Simulator) Move(t *Timer, at float64) {
	if t == nil || t.index < 0 {
		panic("sim: Move of inactive timer")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: moving to %v before now %v", at, s.now))
	}
	if math.IsNaN(at) {
		panic("sim: moving to NaN")
	}
	t.at = at
	t.seq = s.seq
	s.seq++
	heap.Fix(&s.events, t.index)
}

// Cancel removes a pending timer so its callback never runs. Calling
// it on a fired or already-cancelled timer is a no-op.
func (s *Simulator) Cancel(t *Timer) {
	if t == nil || t.index < 0 {
		return
	}
	heap.Remove(&s.events, t.index)
}

// Step fires the next event, advancing the clock to its time.
// It returns false if no events remain.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	s.fireNext()
	return true
}

// fireNext pops the earliest event, advances the clock to its time and
// runs its callback.
func (s *Simulator) fireNext() {
	t := heap.Pop(&s.events).(*Timer)
	if invariant.Enabled {
		invariant.Check(t.at >= s.now && !math.IsNaN(t.at),
			"sim: time must be monotone: next event at %v, now %v", t.at, s.now)
	}
	s.now = t.at
	s.nfired++
	fn := t.fn
	if t.pooled {
		// Recycled before firing so a self-rescheduling chain can
		// reuse the very struct it is running from.
		s.recycle(t)
	}
	fn()
}

// RunUntil fires events in order until the clock would pass `end`,
// then sets the clock to exactly `end`. Events scheduled at exactly
// `end` do fire.
func (s *Simulator) RunUntil(end float64) {
	for s.RunUntilN(end, math.MaxInt) == math.MaxInt {
	}
}

// RunUntilN fires at most max events whose time is <= end, advancing
// the clock, and returns the number fired. A return value below max
// means the horizon was reached — no events remain at or before end —
// and the clock has been set to exactly `end`. Callers interleave their
// own work between events: client.RunContext fires them one at a time
// and checks its context before each.
func (s *Simulator) RunUntilN(end float64, max int) int {
	fired := 0
	for fired < max && len(s.events) > 0 && s.events[0].at <= end {
		s.fireNext()
		fired++
	}
	if fired < max && end > s.now {
		s.now = end
	}
	return fired
}

// Run fires events until none remain.
func (s *Simulator) Run() {
	for s.Step() {
	}
}
