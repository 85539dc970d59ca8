// Package transfer models file transfers (paper §6.2: "Jobs are
// assumed to be runnable immediately after dispatch. For data-intensive
// applications this is not a realistic assumption. It would be
// important to model an additional scheduling policy: the order in
// which files are uploaded and downloaded.").
//
// The model is a shared link per direction with a fixed bandwidth:
// transfers are served one at a time in an order chosen by the
// transfer-scheduling policy (FIFO, smallest-first, or earliest-
// deadline-first on the owning job's deadline). Network unavailability
// pauses the active transfer, preserving partial progress. Zero
// bandwidth means an infinitely fast link: transfers complete on the
// next event while the network is up (and queue until it comes back
// otherwise), which reproduces the paper's baseline assumption.
package transfer

import (
	"fmt"

	"bce/internal/sim"
)

// Direction distinguishes downloads (job inputs) from uploads (results).
type Direction int

const (
	// Down is server-to-client (job input files).
	Down Direction = iota
	// Up is client-to-server (result output files).
	Up
	// NumDirections is the number of transfer directions.
	NumDirections
)

// String returns the direction name.
func (d Direction) String() string {
	switch d {
	case Down:
		return "download"
	case Up:
		return "upload"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Policy selects the order in which queued transfers are served.
type Policy int

const (
	// FIFO serves transfers in arrival order.
	FIFO Policy = iota
	// SmallestFirst serves the smallest remaining transfer first,
	// minimising mean job readiness delay.
	SmallestFirst
	// EDF serves the transfer whose job has the earliest deadline.
	EDF
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case SmallestFirst:
		return "smallest-first"
	case EDF:
		return "edf"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy converts a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "fifo", "FIFO":
		return FIFO, nil
	case "smallest-first", "smallest", "sjf":
		return SmallestFirst, nil
	case "edf", "EDF":
		return EDF, nil
	}
	return 0, fmt.Errorf("transfer: unknown policy %q", s)
}

// Transfer is one queued or active file transfer.
type Transfer struct {
	Name     string
	Bytes    float64 // total size
	Deadline float64 // owning job's deadline (for EDF ordering)
	Done     func()  // called when the transfer completes

	remaining float64
	seq       int
}

// Manager schedules transfers over the two directions of one host's
// network link.
type Manager struct {
	sim    *sim.Simulator
	bps    [NumDirections]float64
	policy Policy
	online bool

	queue  [NumDirections][]*Transfer
	active [NumDirections]*Transfer
	timer  [NumDirections]*sim.Timer
	start  [NumDirections]float64 // when the active transfer (re)started
	seq    int

	// Completed and BytesMoved count finished transfers per direction.
	Completed  [NumDirections]int
	BytesMoved [NumDirections]float64
}

// New creates a manager. downBps/upBps are link speeds in bytes/s;
// <= 0 means infinitely fast.
func New(s *sim.Simulator, downBps, upBps float64, policy Policy) *Manager {
	m := &Manager{sim: s, policy: policy, online: true}
	m.bps[Down] = downBps
	m.bps[Up] = upBps
	return m
}

// Enqueue adds a transfer; its Done callback fires (via a simulator
// event) when the last byte arrives. Even infinitely-fast transfers go
// through the queue, so they respect SetOnline(false) and are released
// on resume like any other transfer.
func (m *Manager) Enqueue(dir Direction, t *Transfer) {
	t.remaining = t.Bytes
	t.seq = m.seq
	m.seq++
	m.queue[dir] = append(m.queue[dir], t)
	m.startNext(dir)
}

// QueueLen returns the number of waiting-plus-active transfers.
func (m *Manager) QueueLen(dir Direction) int {
	n := len(m.queue[dir])
	if m.active[dir] != nil {
		n++
	}
	return n
}

// SetOnline pauses (false) or resumes (true) both directions; the
// active transfers keep their partial progress.
func (m *Manager) SetOnline(on bool) {
	if on == m.online {
		return
	}
	m.online = on
	for dir := Direction(0); dir < NumDirections; dir++ {
		if !on {
			m.pause(dir)
		} else {
			m.startNext(dir)
		}
	}
}

// pause stops the active transfer, crediting its progress.
func (m *Manager) pause(dir Direction) {
	t := m.active[dir]
	if t == nil {
		return
	}
	if m.bps[dir] > 0 {
		elapsed := m.sim.Now() - m.start[dir]
		t.remaining -= float64(elapsed * m.bps[dir])
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	m.sim.Cancel(m.timer[dir])
	m.timer[dir] = nil
	m.active[dir] = nil
	// Back to the queue; the policy will pick it (or another) up on
	// resume.
	m.queue[dir] = append(m.queue[dir], t)
}

// pick removes and returns the next transfer per the policy.
func (m *Manager) pick(dir Direction) *Transfer {
	q := m.queue[dir]
	if len(q) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(q); i++ {
		switch m.policy {
		case SmallestFirst:
			if q[i].remaining < q[best].remaining ||
				(q[i].remaining == q[best].remaining && q[i].seq < q[best].seq) {
				best = i
			}
		case EDF:
			if q[i].Deadline < q[best].Deadline ||
				(q[i].Deadline == q[best].Deadline && q[i].seq < q[best].seq) {
				best = i
			}
		default: // FIFO
			if q[i].seq < q[best].seq {
				best = i
			}
		}
	}
	t := q[best]
	m.queue[dir] = append(q[:best], q[best+1:]...)
	return t
}

// startNext begins the next queued transfer if the link is free.
func (m *Manager) startNext(dir Direction) {
	if !m.online || m.active[dir] != nil {
		return
	}
	t := m.pick(dir)
	if t == nil {
		return
	}
	m.active[dir] = t
	m.start[dir] = m.sim.Now()
	// Infinitely fast links (bps <= 0, the paper's baseline) and
	// zero-byte transfers complete on the next event, so callers never
	// re-enter synchronously.
	var dur float64
	if m.bps[dir] > 0 {
		dur = t.remaining / m.bps[dir]
	}
	m.timer[dir] = m.sim.After(dur, func() {
		m.active[dir] = nil
		m.timer[dir] = nil
		m.Completed[dir]++
		m.BytesMoved[dir] += t.Bytes
		if t.Done != nil {
			t.Done()
		}
		m.startNext(dir)
	})
}
