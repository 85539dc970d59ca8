package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	s := New()
	s.Run()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Step() {
		t.Fatal("Step on empty simulator returned true")
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	s := New()
	var at float64
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestAfterNegativeClamped(t *testing.T) {
	s := New()
	fired := false
	s.After(-3, func() { fired = true })
	s.Run()
	if !fired || s.Now() != 0 {
		t.Fatalf("After(-3) fired=%v at %v, want fired at 0", fired, s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	tm := s.At(1, func() { fired = true })
	s.Cancel(tm)
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	// Double cancel is a no-op.
	s.Cancel(tm)
	s.Cancel(nil)
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	fired := false
	var tm *Timer
	s.At(1, func() { s.Cancel(tm) })
	tm = s.At(2, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("timer cancelled mid-run still fired")
	}
}

func TestReschedule(t *testing.T) {
	s := New()
	var at float64
	tm := s.At(1, func() { at = s.Now() })
	s.At(0.5, func() { s.Move(tm, 7) })
	s.Run()
	if at != 7 {
		t.Fatalf("rescheduled timer fired at %v, want 7", at)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []float64
	for _, tt := range []float64{1, 2, 3, 4, 5} {
		tt := tt
		s.At(tt, func() { fired = append(fired, tt) })
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 1,2,3", fired)
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %v, want all 5", fired)
	}
	if s.Now() != 10 {
		t.Fatalf("Now() = %v, want 10 (clock advances to end)", s.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New()
	fired := false
	s.At(3, func() { fired = true })
	s.RunUntil(3)
	if !fired {
		t.Fatal("event at exactly the RunUntil boundary did not fire")
	}
}

func TestFiredCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.At(float64(i), func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

func TestNestedScheduling(t *testing.T) {
	// Events scheduled from within callbacks interleave correctly.
	s := New()
	var got []string
	s.At(1, func() {
		got = append(got, "a")
		s.At(2, func() { got = append(got, "a2") })
	})
	s.At(2, func() { got = append(got, "b") })
	s.Run()
	want := []string{"a", "b", "a2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// Property: for any set of event times, events fire in nondecreasing
// time order and the clock never goes backwards.
func TestPropertyMonotoneClock(t *testing.T) {
	f := func(times []float64, seed int64) bool {
		s := New()
		var fired []float64
		for _, tt := range times {
			if tt < 0 {
				tt = -tt
			}
			if tt != tt { // NaN
				continue
			}
			tt := tt
			s.At(tt, func() { fired = append(fired, tt) })
		}
		// Randomly cancel some.
		rng := rand.New(rand.NewSource(seed))
		_ = rng
		s.Run()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCancelSubset(t *testing.T) {
	// Cancelling an arbitrary subset fires exactly the complement.
	f := func(n uint8, mask uint64) bool {
		s := New()
		count := int(n%32) + 1
		fired := make([]bool, count)
		timers := make([]*Timer, count)
		for i := 0; i < count; i++ {
			i := i
			timers[i] = s.At(float64(i), func() { fired[i] = true })
		}
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				s.Cancel(timers[i])
			}
		}
		s.Run()
		for i := 0; i < count; i++ {
			want := mask&(1<<uint(i)) == 0
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(float64(j%97), func() {})
		}
		s.Run()
	}
}

func TestRunUntilN(t *testing.T) {
	s := New()
	fired := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func() { fired++ })
	}
	if n := s.RunUntilN(20, 3); n != 3 || fired != 3 {
		t.Fatalf("first batch: n=%d fired=%d, want 3", n, fired)
	}
	if s.Now() != 3 {
		t.Fatalf("clock stopped mid-batch at %v, want 3", s.Now())
	}
	// Remaining 7 events fit in the next batch; the clock then advances
	// to the horizon even though no event sits there.
	if n := s.RunUntilN(20, 100); n != 7 || fired != 10 {
		t.Fatalf("second batch: n=%d fired=%d, want 7/10", n, fired)
	}
	if s.Now() != 20 {
		t.Fatalf("Now() = %v, want horizon 20", s.Now())
	}
	// An exhausted simulator fires nothing and stays put.
	if n := s.RunUntilN(20, 100); n != 0 || s.Now() != 20 {
		t.Fatalf("exhausted: n=%d now=%v", n, s.Now())
	}
}

func TestRunUntilNHonorsHorizon(t *testing.T) {
	s := New()
	fired := 0
	s.At(5, func() { fired++ })
	s.At(15, func() { fired++ })
	if n := s.RunUntilN(10, 100); n != 1 || fired != 1 {
		t.Fatalf("n=%d fired=%d, want 1 (event at 15 is past the horizon)", n, fired)
	}
	if s.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", s.Now())
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// Once a timer has fired, Cancel is a no-op that leaves every other
// pending timer in place, and Move panics rather than fire it twice.
func TestTimerHandleStates(t *testing.T) {
	s := New()
	var got []int
	tm := s.At(5, func() { got = append(got, 5) })
	s.At(20, func() { got = append(got, 20) })
	s.At(30, func() { got = append(got, 30) })
	s.RunUntil(10)
	s.Cancel(tm)
	mustPanic(t, "Move of a fired timer", func() { s.Move(tm, 15) })
	s.Run()
	if !slices.Equal(got, []int{5, 20, 30}) {
		t.Fatalf("fired %v, want [5 20 30]", got)
	}
}

// A cancelled timer never fires, also when cancelled twice, and Move
// panics rather than revive it.
func TestTimerCancelledState(t *testing.T) {
	s := New()
	fired := false
	tm := s.At(5, func() { fired = true })
	other := false
	s.At(6, func() { other = true })
	s.Cancel(tm)
	s.Cancel(tm)
	mustPanic(t, "Move of a cancelled timer", func() { s.Move(tm, 7) })
	s.RunUntil(10)
	if fired {
		t.Fatal("cancelled timer fired anyway")
	}
	if !other {
		t.Fatal("cancelling one timer dropped another")
	}
}
