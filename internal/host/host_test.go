package host

import (
	"math"
	"testing"
	"testing/quick"

	"bce/internal/stats"
)

func TestProcTypeString(t *testing.T) {
	if CPU.String() != "CPU" || NvidiaGPU.String() != "NVIDIA" || AtiGPU.String() != "ATI" {
		t.Fatal("unexpected ProcType names")
	}
	if ProcType(9).String() != "ProcType(9)" {
		t.Fatal("unknown type should format as ProcType(n)")
	}
	if CPU.IsGPU() || !NvidiaGPU.IsGPU() || !AtiGPU.IsGPU() {
		t.Fatal("IsGPU classification wrong")
	}
}

func TestPeakFLOPS(t *testing.T) {
	h := StdHost(4, 2.5e9, 1, 100e9)
	if got := h.Hardware.PeakFLOPS(CPU); got != 10e9 {
		t.Fatalf("CPU peak = %v, want 10e9", got)
	}
	if got := h.Hardware.PeakFLOPS(NvidiaGPU); got != 100e9 {
		t.Fatalf("GPU peak = %v, want 100e9", got)
	}
	if got := h.Hardware.TotalPeakFLOPS(); got != 110e9 {
		t.Fatalf("total peak = %v, want 110e9", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []Hardware{
		{}, // no CPU
		{Proc: [NumProcTypes]Resource{{Count: -1, FLOPSPerInst: 1e9}}, MemBytes: 1e9},
		{Proc: [NumProcTypes]Resource{{Count: 1, FLOPSPerInst: 0}}, MemBytes: 1e9},
		{Proc: [NumProcTypes]Resource{{Count: 1, FLOPSPerInst: 1e9}}}, // no memory
		{Proc: [NumProcTypes]Resource{{Count: 1, FLOPSPerInst: 1e9}, {Count: 1, FLOPSPerInst: -1}}, MemBytes: 1e9},
	}
	for i, hw := range bad {
		if err := hw.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted invalid hardware", i)
		}
	}
	good := Hardware{MemBytes: 1e9}
	good.Proc[CPU] = Resource{Count: 2, FLOPSPerInst: 3e9}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected valid hardware: %v", err)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Hardware{}, Preferences{}, AlwaysOn()); err == nil {
		t.Fatal("New accepted invalid hardware")
	}
}

func TestPreferenceDefaults(t *testing.T) {
	p := Preferences{}.Defaults()
	if p.MinQueue != 8640 {
		t.Fatalf("MinQueue default = %v, want 8640 (0.1 day)", p.MinQueue)
	}
	if p.MaxQueue <= p.MinQueue {
		t.Fatalf("MaxQueue %v should exceed MinQueue %v", p.MaxQueue, p.MinQueue)
	}
	// Explicit values survive.
	q := Preferences{MinQueue: 100, MaxQueue: 5000}.Defaults()
	if q.MinQueue != 100 || q.MaxQueue != 5000 {
		t.Fatalf("explicit preferences overridden: %+v", q)
	}
	// MaxQueue below MinQueue is repaired.
	r := Preferences{MinQueue: 1000, MaxQueue: 10}.Defaults()
	if r.MaxQueue < r.MinQueue {
		t.Fatalf("MaxQueue %v < MinQueue %v after Defaults", r.MaxQueue, r.MinQueue)
	}
}

func TestAvailSpecFrac(t *testing.T) {
	if f := (AvailSpec{}).Frac(); f != 1 {
		t.Fatalf("always-on Frac = %v, want 1", f)
	}
	if f := (AvailSpec{MeanOn: 3, MeanOff: 1}).Frac(); math.Abs(f-0.75) > 1e-12 {
		t.Fatalf("Frac = %v, want 0.75", f)
	}
	if f := (AvailSpec{MeanOn: 0, MeanOff: 5}).Frac(); f != 0 {
		t.Fatalf("never-on Frac = %v, want 0", f)
	}
}

func TestProcessAlwaysOn(t *testing.T) {
	p := NewProcess(AvailSpec{}, stats.NewRNG(1))
	d, on := p.Next()
	if !on || d > 0 {
		t.Fatalf("always-on process returned (%v,%v), want infinite on period", d, on)
	}
}

func TestProcessAlternatesAndConverges(t *testing.T) {
	spec := AvailSpec{MeanOn: 3600, MeanOff: 1200}
	p := NewProcess(spec, stats.NewRNG(5))
	var onTime, offTime float64
	prevOn := false
	for i := 0; i < 20000; i++ {
		d, on := p.Next()
		if i > 0 && on == prevOn {
			t.Fatal("process did not alternate on/off")
		}
		prevOn = on
		if on {
			onTime += d
		} else {
			offTime += d
		}
	}
	frac := onTime / (onTime + offTime)
	if math.Abs(frac-spec.Frac()) > 0.02 {
		t.Fatalf("long-run on fraction %v, want ~%v", frac, spec.Frac())
	}
}

func TestProcessStartsOn(t *testing.T) {
	p := NewProcess(AvailSpec{MeanOn: 10, MeanOff: 10}, stats.NewRNG(2))
	if _, on := p.Next(); !on {
		t.Fatal("process must start with an available period")
	}
}

func TestPropertyFracInRange(t *testing.T) {
	f := func(on, off float64) bool {
		on, off = math.Abs(on), math.Abs(off)
		if math.IsNaN(on) || math.IsNaN(off) || math.IsInf(on, 0) || math.IsInf(off, 0) {
			return true
		}
		fr := AvailSpec{MeanOn: on, MeanOff: off}.Frac()
		return fr >= 0 && fr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelString(t *testing.T) {
	if Compute.String() != "compute" || GPUCompute.String() != "gpu" || Network.String() != "network" {
		t.Fatal("unexpected channel names")
	}
	if Channel(7).String() != "Channel(7)" {
		t.Fatal("unknown channel formatting")
	}
}

func TestTraceReplayLoops(t *testing.T) {
	tr := NewTraceReplay([]Period{
		{Duration: 10, On: true},
		{Duration: 5, On: false},
	})
	for round := 0; round < 3; round++ {
		d, on := tr.Next()
		if d != 10 || !on {
			t.Fatalf("round %d: first period = (%v,%v)", round, d, on)
		}
		d, on = tr.Next()
		if d != 5 || on {
			t.Fatalf("round %d: second period = (%v,%v)", round, d, on)
		}
	}
}

func TestTraceReplaySkipsZeroPeriods(t *testing.T) {
	tr := NewTraceReplay([]Period{
		{Duration: 0, On: false},
		{Duration: 7, On: true},
	})
	if d, on := tr.Next(); d != 7 || !on {
		t.Fatalf("zero-length period not skipped: (%v,%v)", d, on)
	}
}

func TestTraceReplayEmptyAlwaysOn(t *testing.T) {
	tr := NewTraceReplay(nil)
	if d, on := tr.Next(); d != 0 || !on {
		t.Fatal("empty trace should behave as always-on")
	}
}

func TestAvailabilityFrac(t *testing.T) {
	var a Availability
	if a.Frac(Compute) != 1 {
		t.Fatal("always-on Frac should be 1")
	}
	a.Spec[Compute] = AvailSpec{MeanOn: 1, MeanOff: 3}
	if f := a.Frac(Compute); math.Abs(f-0.25) > 1e-12 {
		t.Fatalf("spec Frac = %v, want 0.25", f)
	}
	// A trace overrides the spec.
	a.Trace[Compute] = []Period{{Duration: 6, On: true}, {Duration: 2, On: false}}
	if f := a.Frac(Compute); math.Abs(f-0.75) > 1e-12 {
		t.Fatalf("trace Frac = %v, want 0.75", f)
	}
}

func TestAvailabilitySource(t *testing.T) {
	var a Availability
	if src := a.Source(Compute, stats.NewRNG(1)); src != nil {
		t.Fatal("always-on channel should have nil source")
	}
	a.Spec[Compute] = AvailSpec{MeanOn: 10, MeanOff: 10}
	if _, ok := a.Source(Compute, stats.NewRNG(1)).(*Process); !ok {
		t.Fatal("spec channel should use the random process")
	}
	a.Trace[Compute] = []Period{{Duration: 1, On: true}}
	if _, ok := a.Source(Compute, stats.NewRNG(1)).(*TraceReplay); !ok {
		t.Fatal("traced channel should use trace replay")
	}
}

func TestDailyWindowTrace(t *testing.T) {
	// 9:00–17:00: off 9 h, on 8 h, off 7 h.
	tr := DailyWindowTrace(9, 17)
	want := []Period{{9 * 3600, false}, {8 * 3600, true}, {7 * 3600, false}}
	if len(tr) != 3 {
		t.Fatalf("trace = %v", tr)
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, tr[i], want[i])
		}
	}
	var total float64
	for _, p := range tr {
		total += p.Duration
	}
	if total != 86400 {
		t.Fatalf("trace does not cover one day: %v", total)
	}
}

func TestDailyWindowTraceCrossesMidnight(t *testing.T) {
	// 22:00–06:00: on 6 h, off 16 h, on 2 h.
	tr := DailyWindowTrace(22, 6)
	want := []Period{{6 * 3600, true}, {16 * 3600, false}, {2 * 3600, true}}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, tr[i], want[i])
		}
	}
}

func TestDailyWindowTraceDegenerate(t *testing.T) {
	if tr := DailyWindowTrace(8, 8); tr != nil {
		t.Fatalf("equal start/end should mean always on, got %v", tr)
	}
	// Midnight boundary: 0→8 has no leading off period.
	tr := DailyWindowTrace(0, 8)
	if len(tr) != 2 || !tr[0].On || tr[0].Duration != 8*3600 {
		t.Fatalf("0–8 window trace = %v", tr)
	}
	// Negative hours normalise.
	tr2 := DailyWindowTrace(-2, 6) // == 22→6
	if len(tr2) != 3 || !tr2[0].On {
		t.Fatalf("-2–6 window trace = %v", tr2)
	}
}
