// Package host models the volunteered computer: its processing resources
// (CPU and GPU types, instance counts, per-instance peak FLOPS), memory,
// user preferences governing the client, and its availability process.
//
// Availability follows the paper's model: available and unavailable
// periods with exponentially distributed lengths, with separate channels
// for "computing allowed", "GPU computing allowed", and "connected to
// the Internet".
package host

import (
	"fmt"
	"math"

	"bce/internal/stats"
)

// ProcType identifies a processor type. The paper's BOINC supports CPUs
// plus NVIDIA and ATI GPUs as coprocessors.
type ProcType int

const (
	// CPU is the host's central processor type.
	CPU ProcType = iota
	// NvidiaGPU is the NVIDIA coprocessor type.
	NvidiaGPU
	// AtiGPU is the ATI/AMD coprocessor type.
	AtiGPU
	// NumProcTypes is the number of processor types.
	NumProcTypes
)

// String returns the BOINC-style name of the processor type.
func (t ProcType) String() string {
	switch t {
	case CPU:
		return "CPU"
	case NvidiaGPU:
		return "NVIDIA"
	case AtiGPU:
		return "ATI"
	}
	return fmt.Sprintf("ProcType(%d)", int(t))
}

// IsGPU reports whether the type is a coprocessor.
func (t ProcType) IsGPU() bool { return t == NvidiaGPU || t == AtiGPU }

// Resource describes the host's complement of one processor type.
type Resource struct {
	Count        int     // number of instances (0 = absent)
	FLOPSPerInst float64 // peak FLOPS of one instance
}

// Hardware is the host's measured hardware description, the information
// the BOINC client probes at startup.
type Hardware struct {
	Proc      [NumProcTypes]Resource
	MemBytes  float64 // main memory
	VRAMBytes float64 // video memory (shared across GPU jobs)

	// DownloadBps/UploadBps are the network link speeds in bytes/s;
	// <= 0 means transfers are instantaneous (the paper's baseline
	// assumption that jobs are runnable immediately after dispatch).
	DownloadBps float64
	UploadBps   float64
}

// PeakFLOPS returns the total peak FLOPS of all instances of type t.
func (h *Hardware) PeakFLOPS(t ProcType) float64 {
	r := h.Proc[t]
	return float64(float64(r.Count) * r.FLOPSPerInst)
}

// TotalPeakFLOPS returns the host's aggregate peak FLOPS across all
// processor types; resource share applies to this aggregate (paper §2.1).
func (h *Hardware) TotalPeakFLOPS() float64 {
	var sum float64
	for t := ProcType(0); t < NumProcTypes; t++ {
		sum += h.PeakFLOPS(t)
	}
	return sum
}

// Validate reports structural problems with the hardware description.
func (h *Hardware) Validate() error {
	if h.Proc[CPU].Count <= 0 {
		return fmt.Errorf("host: must have at least one CPU, got %d", h.Proc[CPU].Count)
	}
	for t := ProcType(0); t < NumProcTypes; t++ {
		r := h.Proc[t]
		if r.Count < 0 {
			return fmt.Errorf("host: %v count %d < 0", t, r.Count)
		}
		if r.Count > 0 && r.FLOPSPerInst <= 0 {
			return fmt.Errorf("host: %v has %d instances but FLOPS %v", t, r.Count, r.FLOPSPerInst)
		}
	}
	if h.MemBytes <= 0 {
		return fmt.Errorf("host: memory %v must be positive", h.MemBytes)
	}
	return nil
}

// Preferences are the user-specified settings that govern the client
// (paper §2.2 and §3.4). Durations are in seconds.
type Preferences struct {
	MinQueue      float64 // min buffer: keep processors busy for this long
	MaxQueue      float64 // max buffer: don't fetch past this much work
	LeaveInMemory bool    // keep preempted jobs in RAM (no checkpoint loss)
}

// Defaults fills in zero fields with the BOINC client defaults.
func (p Preferences) Defaults() Preferences {
	if p.MinQueue <= 0 {
		p.MinQueue = 0.1 * 86400 // BOINC default: 0.1 days
	}
	if p.MaxQueue < p.MinQueue {
		p.MaxQueue = p.MinQueue + 0.5*86400
	}
	return p
}

// Channel identifies an availability channel.
type Channel int

const (
	// Compute is "powered on, BOINC running, computing allowed".
	Compute Channel = iota
	// GPUCompute is "GPU computing allowed" (subordinate to Compute).
	GPUCompute
	// Network is "connected to the Internet".
	Network
	// NumChannels is the number of availability channels.
	NumChannels
)

// String returns the channel name.
func (c Channel) String() string {
	switch c {
	case Compute:
		return "compute"
	case GPUCompute:
		return "gpu"
	case Network:
		return "network"
	}
	return fmt.Sprintf("Channel(%d)", int(c))
}

// AvailSpec parameterises one availability channel as a random process
// with exponentially distributed available/unavailable period lengths.
// MeanOff == 0 means always available.
type AvailSpec struct {
	MeanOn  float64 // mean length of available periods, seconds
	MeanOff float64 // mean length of unavailable periods, seconds
}

// Frac returns the long-run available fraction of the channel.
func (a AvailSpec) Frac() float64 {
	if a.MeanOff <= 0 {
		return 1
	}
	if a.MeanOn <= 0 {
		return 0
	}
	return a.MeanOn / (a.MeanOn + a.MeanOff)
}

// Period is one segment of an availability trace.
type Period struct {
	Duration float64 // seconds
	On       bool
}

// Availability bundles the three channels' specs. A channel with a
// non-empty Trace replays that recorded trace (looping) instead of the
// random process — the trace-driven mode of EmBOINC-style studies.
type Availability struct {
	Spec  [NumChannels]AvailSpec
	Trace [NumChannels][]Period
}

// AlwaysOn returns an availability with every channel always available.
func AlwaysOn() Availability { return Availability{} }

// Frac returns the channel's long-run available fraction, honouring a
// trace when present.
func (a Availability) Frac(ch Channel) float64 {
	if tr := a.Trace[ch]; len(tr) > 0 {
		var on, total float64
		for _, p := range tr {
			total += p.Duration
			if p.On {
				on += p.Duration
			}
		}
		if total <= 0 {
			return 1
		}
		return on / total
	}
	return a.Spec[ch].Frac()
}

// PeriodSource generates successive availability periods. Both the
// random Process and TraceReplay implement it.
type PeriodSource interface {
	// Next returns the next period's length and whether the channel is
	// available during it. Duration <= 0 with on == true means
	// "available forever".
	Next() (duration float64, on bool)
}

// TraceReplay replays a recorded availability trace, looping back to
// the start when it runs out. Zero-length periods are skipped.
type TraceReplay struct {
	periods []Period
	i       int
}

// NewTraceReplay returns a source replaying the trace. An empty trace
// behaves as always-on.
func NewTraceReplay(trace []Period) *TraceReplay {
	var clean []Period
	for _, p := range trace {
		if p.Duration > 0 {
			clean = append(clean, p)
		}
	}
	return &TraceReplay{periods: clean}
}

// Next implements PeriodSource.
func (t *TraceReplay) Next() (float64, bool) {
	if len(t.periods) == 0 {
		return 0, true
	}
	p := t.periods[t.i%len(t.periods)]
	t.i++
	return p.Duration, p.On
}

// Source returns the period source for one channel: a trace replay if
// a trace is present, the random process otherwise, or nil when the
// channel is simply always on.
func (a Availability) Source(ch Channel, rng *stats.RNG) PeriodSource {
	if tr := a.Trace[ch]; len(tr) > 0 {
		return NewTraceReplay(tr)
	}
	if a.Spec[ch].MeanOff <= 0 {
		return nil
	}
	return NewProcess(a.Spec[ch], rng)
}

// DailyWindowTrace builds the looping availability trace for a
// time-of-day computing preference (paper §2.2: "time-of-day limits on
// computing"): available from startHour to endHour each day. Windows
// crossing midnight (e.g. 22→6) are supported. Equal start and end
// means always available (nil trace).
func DailyWindowTrace(startHour, endHour float64) []Period {
	const day = 24.0
	startHour = math.Mod(math.Mod(startHour, day)+day, day)
	endHour = math.Mod(math.Mod(endHour, day)+day, day)
	if startHour == endHour {
		return nil
	}
	if startHour < endHour {
		// Off [0,start), on [start,end), off [end,24). The trace must
		// begin at time zero (midnight).
		return trimZero([]Period{
			{Duration: startHour * 3600, On: false},
			{Duration: (endHour - startHour) * 3600, On: true},
			{Duration: (day - endHour) * 3600, On: false},
		})
	}
	// Crosses midnight: on [0,end), off [end,start), on [start,24).
	return trimZero([]Period{
		{Duration: endHour * 3600, On: true},
		{Duration: (startHour - endHour) * 3600, On: false},
		{Duration: (day - startHour) * 3600, On: true},
	})
}

func trimZero(ps []Period) []Period {
	out := ps[:0]
	for _, p := range ps {
		if p.Duration > 0 {
			out = append(out, p)
		}
	}
	return out
}

// Process generates the alternating on/off periods for one channel.
// Successive calls to Next return (duration, on) pairs starting with an
// available period.
type Process struct {
	spec AvailSpec
	rng  *stats.RNG
	on   bool
}

// NewProcess creates an availability process for the spec. The process
// begins in the available state.
func NewProcess(spec AvailSpec, rng *stats.RNG) *Process {
	return &Process{spec: spec, rng: rng, on: false}
}

// Next returns the length of the next period and whether the channel is
// available during it. An always-on spec returns a single infinite "on"
// period (duration <= 0 means forever).
func (p *Process) Next() (duration float64, on bool) {
	p.on = !p.on
	if p.spec.MeanOff <= 0 {
		return 0, true // forever on
	}
	if p.on {
		return p.rng.Exp(p.spec.MeanOn), true
	}
	return p.rng.Exp(p.spec.MeanOff), false
}

// Host combines hardware, preferences and availability: one usage
// scenario's machine.
type Host struct {
	Hardware Hardware
	Prefs    Preferences
	Avail    Availability
}

// New returns a host with defaults applied to the preferences.
func New(hw Hardware, prefs Preferences, avail Availability) (*Host, error) {
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	return &Host{Hardware: hw, Prefs: prefs.Defaults(), Avail: avail}, nil
}

// StdHost returns a simple always-on host: ncpu CPUs of cpuFlops each and
// optionally ngpu NVIDIA GPUs of gpuFlops each, 8 GB RAM. It is the
// building block for the paper's scenarios.
func StdHost(ncpu int, cpuFlops float64, ngpu int, gpuFlops float64) *Host {
	hw := Hardware{
		MemBytes:  8e9,
		VRAMBytes: 4e9,
	}
	hw.Proc[CPU] = Resource{Count: ncpu, FLOPSPerInst: cpuFlops}
	if ngpu > 0 {
		hw.Proc[NvidiaGPU] = Resource{Count: ngpu, FLOPSPerInst: gpuFlops}
	}
	h, err := New(hw, Preferences{}, AlwaysOn())
	if err != nil {
		panic(err) // impossible for valid arguments
	}
	return h
}
