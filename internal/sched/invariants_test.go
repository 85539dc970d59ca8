//go:build bceinvariants

package sched

import (
	"math"
	"strings"
	"testing"

	"bce/internal/host"
	"bce/internal/job"
)

// TestNaNRankKeyTripsInvariant feeds Enforce a priority function that
// returns NaN. A NaN key breaks the rank order's strict weak ordering,
// so the schedule would silently depend on the sort algorithm; the
// bceinvariants build must refuse it instead.
func TestNaNRankKeyTripsInvariant(t *testing.T) {
	tasks := []*job.Task{cpuTask(0, "a"), cpuTask(1, "nan")}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Enforce accepted a NaN rank key")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "bce: invariant violated") ||
			!strings.Contains(msg, "NaN rank key") || !strings.Contains(msg, "nan") ||
			!strings.Contains(msg, "JS-LOCAL") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	Enforce(Input{
		Policy: JSLocal, Hardware: hwCPU(1), Tasks: tasks,
		Endangered: noEndangered,
		Prio: func(p int, _ host.ProcType) float64 {
			if p == 1 {
				return math.NaN()
			}
			return 0
		},
		GPUAllowed: true,
	})
}
