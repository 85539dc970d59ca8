package rrsim

// This file freezes the pre-Simulator implementation of Run (the
// straightforward allocate-per-step, scan-all-jobs version) as a
// reference fixture. The Simulator rewrite must produce bit-identical
// results — the emulator's figures of merit are reproduced to the last
// bit across runs, so even last-ulp drift in rr_sim would show up as a
// spurious emulation difference. TestGoldenCompare checks equality on
// seeded random workloads; BenchmarkRRSimReference keeps the old cost
// measurable next to BenchmarkRRSim.

import (
	"math"
	"math/rand"
	"testing"

	"bce/internal/host"
)

// referenceAllocate is the frozen pre-Simulator allocate.
func referenceAllocate(demand, weight []float64, total float64) []float64 {
	n := len(demand)
	alloc := make([]float64, n)
	if total <= 0 {
		return alloc
	}
	active := make([]bool, n)
	nActive := 0
	for i := range demand {
		if demand[i] > 0 && weight[i] > 0 {
			active[i] = true
			nActive++
		}
	}
	remaining := total
	for iter := 0; iter < n+1 && nActive > 0 && remaining > 1e-12; iter++ {
		var wsum float64
		for i := range demand {
			if active[i] {
				wsum += weight[i]
			}
		}
		if wsum <= 0 {
			break
		}
		capped := false
		for i := range demand {
			if !active[i] {
				continue
			}
			fair := remaining * weight[i] / wsum
			if alloc[i]+fair >= demand[i]-1e-12 {
				remaining -= demand[i] - alloc[i]
				alloc[i] = demand[i]
				active[i] = false
				nActive--
				capped = true
			}
		}
		if !capped {
			for i := range demand {
				if active[i] {
					alloc[i] += remaining * weight[i] / wsum
				}
			}
			remaining = 0
		}
	}
	return alloc
}

// referenceRun is the frozen pre-Simulator Run (with the finished-job
// endangered fix, which landed just before the rewrite).
func referenceRun(in Input) *Result {
	res := &Result{}
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		if in.OnFrac[t] == 0 {
			in.OnFrac[t] = 1
		}
	}
	if in.HorizonMax < in.HorizonMin {
		in.HorizonMax = in.HorizonMin
	}

	nproj := len(in.Shares)
	rem := make([]float64, len(in.Jobs))
	unfinished := 0
	for i, j := range in.Jobs {
		rem[i] = j.Remaining * j.Instances
		if rem[i] > 0 {
			unfinished++
		} else {
			j.ProjectedFinish = in.Now
			j.Endangered = false
		}
	}

	satOpen := [host.NumProcTypes]bool{}
	firstStep := true
	elapsed := 0.0

	demand := make([]float64, nproj)
	rates := make([]float64, len(in.Jobs))

	for step := 0; step < maxSteps; step++ {
		var busy [host.NumProcTypes]float64
		for i := range rates {
			rates[i] = 0
		}
		anyRate := false
		for t := host.ProcType(0); t < host.NumProcTypes; t++ {
			n := float64(in.Hardware.Proc[t].Count)
			if n == 0 {
				continue
			}
			for p := range demand {
				demand[p] = 0
			}
			for i, j := range in.Jobs {
				if j.Type == t && rem[i] > 0 && j.Project < nproj {
					demand[j.Project] += j.Instances
				}
			}
			alloc := referenceAllocate(demand, in.Shares, n)
			for p, a := range alloc {
				busy[t] += a
				if a <= 0 {
					continue
				}
				for i, j := range in.Jobs {
					if a <= 1e-12 {
						break
					}
					if j.Type != t || rem[i] <= 0 || j.Project != p {
						continue
					}
					r := math.Min(j.Instances, a)
					a -= r
					rates[i] = r * in.OnFrac[t]
					anyRate = true
				}
			}
		}

		if firstStep {
			for t := host.ProcType(0); t < host.NumProcTypes; t++ {
				n := float64(in.Hardware.Proc[t].Count)
				res.IdleNow[t] = math.Max(0, n-busy[t])
				satOpen[t] = n > 0 && busy[t] >= n-1e-9
			}
			firstStep = false
		}

		dt := math.Inf(1)
		for i := range in.Jobs {
			if rem[i] > 0 && rates[i] > 0 {
				if d := rem[i] / rates[i]; d < dt {
					dt = d
				}
			}
		}
		atEnd := false
		if unfinished == 0 || !anyRate || math.IsInf(dt, 1) {
			dt = in.HorizonMax - elapsed
			atEnd = true
			if dt <= 0 {
				break
			}
		}

		for t := host.ProcType(0); t < host.NumProcTypes; t++ {
			n := float64(in.Hardware.Proc[t].Count)
			if n == 0 {
				continue
			}
			idle := math.Max(0, n-busy[t])
			if ov := overlap(elapsed, elapsed+dt, 0, in.HorizonMin); ov > 0 {
				res.ShortfallMin[t] += idle * ov
			}
			if ov := overlap(elapsed, elapsed+dt, 0, in.HorizonMax); ov > 0 {
				res.ShortfallMax[t] += idle * ov
			}
			if satOpen[t] {
				if busy[t] >= n-1e-9 {
					res.Saturated[t] += dt
				} else {
					satOpen[t] = false
				}
			}
		}
		if in.Trace {
			res.Trace = append(res.Trace, TraceStep{
				Start: in.Now + elapsed, End: in.Now + elapsed + dt, Busy: busy,
			})
		}

		for i, j := range in.Jobs {
			if rem[i] <= 0 || rates[i] <= 0 {
				continue
			}
			rem[i] -= rates[i] * dt
			if rem[i] <= 1e-9 {
				rem[i] = 0
				unfinished--
				j.ProjectedFinish = in.Now + elapsed + dt
				j.Endangered = j.ProjectedFinish > j.Deadline-in.DeadlineMargin
				if j.Endangered {
					res.NumEndangered++
				}
			}
		}
		elapsed += dt
		if atEnd {
			break
		}
	}

	for i, j := range in.Jobs {
		if rem[i] > 0 {
			j.ProjectedFinish = math.Inf(1)
			j.Endangered = true
			res.NumEndangered++
		}
	}
	return res
}

// randomWorkload builds a randomized Input plus an identical deep copy
// of its job slice, so reference and Simulator each get private output
// fields.
func randomWorkload(rng *rand.Rand) (Input, []*Job, []*Job) {
	nproj := 1 + rng.Intn(8)
	shares := make([]float64, nproj)
	for p := range shares {
		switch rng.Intn(4) {
		case 0:
			shares[p] = 0 // no share: its jobs can never run
		default:
			shares[p] = math.Trunc(rng.Float64()*1000) / 10
		}
	}
	hw := &host.Hardware{}
	hw.Proc[host.CPU] = host.Resource{Count: rng.Intn(9), FLOPSPerInst: 1e9}
	if rng.Intn(2) == 0 {
		hw.Proc[host.NvidiaGPU] = host.Resource{Count: rng.Intn(3), FLOPSPerInst: 1e11}
	}
	if rng.Intn(3) == 0 {
		hw.Proc[host.AtiGPU] = host.Resource{Count: rng.Intn(2), FLOPSPerInst: 5e10}
	}

	now := rng.Float64() * 1e6
	in := Input{
		Now:            now,
		Hardware:       hw,
		Shares:         shares,
		HorizonMin:     rng.Float64() * 3600,
		HorizonMax:     rng.Float64() * 86400,
		DeadlineMargin: float64(rng.Intn(3)) * 60,
		Trace:          rng.Intn(3) == 0,
	}
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		if rng.Intn(2) == 0 {
			in.OnFrac[t] = 0.1 + 0.9*rng.Float64()
		}
	}

	njobs := rng.Intn(120)
	a := make([]*Job, njobs)
	b := make([]*Job, njobs)
	for i := range a {
		j := Job{
			// Occasionally nproj itself: a project with no share entry.
			Project:   rng.Intn(nproj + 1),
			Type:      host.CPU,
			Instances: 1,
			Remaining: rng.Float64() * 20000,
			Deadline:  now + rng.Float64()*2*86400 - 3600,
		}
		switch rng.Intn(4) {
		case 0:
			j.Type = host.NvidiaGPU
			j.Instances = 1
		case 1:
			if rng.Intn(2) == 0 {
				j.Type = host.AtiGPU
			}
			j.Instances = 0.5 + rng.Float64()*3.5 // multicore / fractional
		}
		if rng.Intn(10) == 0 {
			j.Remaining = 0 // finished before the simulation starts
		}
		cp := j
		a[i] = &j
		b[i] = &cp
	}
	in.Jobs = a
	return in, a, b
}

// deepWorkload builds a randomized deep queue like randomWorkload's,
// but shaped like a job-heavy client's: hundreds to thousands of jobs
// on many CPUs, few projects, and integral Instances, so every group
// is exact and drains by in-place removal over many finishes.
func deepWorkload(rng *rand.Rand) (Input, []*Job, []*Job) {
	nproj := 1 + rng.Intn(3)
	shares := make([]float64, nproj)
	for p := range shares {
		shares[p] = float64(25 * (1 + rng.Intn(8)))
	}
	hw := &host.Hardware{}
	hw.Proc[host.CPU] = host.Resource{Count: 4 + rng.Intn(61), FLOPSPerInst: 1e9}
	hw.Proc[host.NvidiaGPU] = host.Resource{Count: 1 + rng.Intn(2), FLOPSPerInst: 1e11}

	now := rng.Float64() * 1e6
	in := Input{
		Now:            now,
		Hardware:       hw,
		Shares:         shares,
		HorizonMin:     8 * 3600,
		HorizonMax:     36 * 3600,
		DeadlineMargin: float64(rng.Intn(3)) * 60,
	}
	if rng.Intn(2) == 0 {
		in.OnFrac[host.CPU] = 0.5 + 0.5*rng.Float64()
	}

	njobs := 300 + rng.Intn(1701)
	a := make([]*Job, njobs)
	b := make([]*Job, njobs)
	for i := range a {
		j := Job{
			Project:   rng.Intn(nproj),
			Type:      host.CPU,
			Instances: []float64{1, 1, 1, 2, 4}[rng.Intn(5)],
			Remaining: 60 + rng.Float64()*1200,
			Deadline:  now + rng.Float64()*2*86400,
		}
		if rng.Intn(10) == 0 {
			j.Type = host.NvidiaGPU
			j.Instances = 1
		}
		cp := j
		a[i] = &j
		b[i] = &cp
	}
	in.Jobs = a
	return in, a, b
}

// wideWorkload builds a wide host (8–16 CPUs) whose two or three
// project shares give fractional allocations, so groups hold partial
// seats, with hundreds of one-CPU jobs of two estimates per project:
// seats of one estimate finish in the same step, with survivors of the
// other between them. A zero-share project and jobs for a processor
// type the host lacks ride along; neither ever runs.
func wideWorkload(rng *rand.Rand) (Input, []*Job, []*Job) {
	nproj := 2 + rng.Intn(2)
	shares := make([]float64, nproj+1) // the last project has no share
	est := make([][2]float64, nproj+1)
	for p := range shares {
		if p < nproj {
			shares[p] = float64(10 + rng.Intn(90))
		}
		est[p] = [2]float64{float64(300 * (1 + rng.Intn(4))), float64(300 * (1 + rng.Intn(4)))}
	}
	hw := &host.Hardware{}
	hw.Proc[host.CPU] = host.Resource{Count: 8 + rng.Intn(9), FLOPSPerInst: 1e9}
	if rng.Intn(2) == 0 {
		hw.Proc[host.NvidiaGPU] = host.Resource{Count: 1 + rng.Intn(2), FLOPSPerInst: 1e11}
	}

	now := rng.Float64() * 1e6
	in := Input{
		Now:            now,
		Hardware:       hw,
		Shares:         shares,
		HorizonMin:     8 * 3600,
		HorizonMax:     36 * 3600,
		DeadlineMargin: float64(rng.Intn(3)) * 60,
		Trace:          rng.Intn(4) == 0,
	}
	if rng.Intn(2) == 0 {
		in.OnFrac[host.CPU] = 0.5 + 0.5*rng.Float64()
	}

	njobs := 200 + rng.Intn(401)
	a := make([]*Job, njobs)
	b := make([]*Job, njobs)
	for i := range a {
		p := rng.Intn(nproj + 1)
		j := Job{
			Project:   p,
			Type:      host.CPU,
			Instances: 1,
			Remaining: est[p][rng.Intn(2)],
			Deadline:  now + rng.Float64()*2*86400,
		}
		switch rng.Intn(20) {
		case 0:
			j.Type = host.NvidiaGPU
		case 1:
			j.Type = host.AtiGPU // the host has none
		}
		cp := j
		a[i] = &j
		b[i] = &cp
	}
	in.Jobs = a
	return in, a, b
}

// drainWorkload builds groups that run dry during the pass: a few
// projects with a dozen or fewer jobs each, of widely spread work, on
// 2–16 CPUs. A group's demand falls to and below its fair share as its
// jobs finish, so it caps and its type's allocation changes, and groups
// empty one by one. Shares are small multiples of 0.1, so exact fair
// shares are often whole numbers of CPUs while the computed ones are
// an ulp off, and a demand can land on the reuse bound's edge.
func drainWorkload(rng *rand.Rand) (Input, []*Job, []*Job) {
	nproj := 2 + rng.Intn(4)
	shares := make([]float64, nproj)
	for p := range shares {
		shares[p] = float64(1+rng.Intn(5)) * 0.1
	}
	hw := &host.Hardware{}
	hw.Proc[host.CPU] = host.Resource{Count: 2 + rng.Intn(15), FLOPSPerInst: 1e9}

	now := rng.Float64() * 1e6
	in := Input{
		Now:        now,
		Hardware:   hw,
		Shares:     shares,
		HorizonMin: rng.Float64() * 3600,
		HorizonMax: rng.Float64() * 86400,
		Trace:      rng.Intn(4) == 0,
	}
	var a, b []*Job
	for p := range shares {
		for k := rng.Intn(13); k > 0; k-- {
			j := Job{
				Project:   p,
				Type:      host.CPU,
				Instances: []float64{1, 1, 1, 2}[rng.Intn(4)],
				Remaining: 100 + rng.Float64()*5000,
				Deadline:  now + rng.Float64()*86400,
			}
			cp := j
			a = append(a, &j)
			b = append(b, &cp)
		}
	}
	// Interleave the projects' arrivals.
	rng.Shuffle(len(a), func(i, k int) {
		a[i], a[k] = a[k], a[i]
		b[i], b[k] = b[k], b[i]
	})
	in.Jobs = a
	return in, a, b
}

// mixedWorkload builds groups whose members differ in Instances, so a
// finish re-walks them: CPU groups of 1-, 2- and 4-instance jobs
// (exact) and GPU groups of 1, 1/2, 1/3 and 1/4 of a GPU (not exact),
// next to uniform groups of one fractional GPU usage each.
func mixedWorkload(rng *rand.Rand) (Input, []*Job, []*Job) {
	nproj := 1 + rng.Intn(4)
	shares := make([]float64, nproj)
	for p := range shares {
		shares[p] = float64(1 + rng.Intn(100))
	}
	hw := &host.Hardware{}
	hw.Proc[host.CPU] = host.Resource{Count: 4 + rng.Intn(13), FLOPSPerInst: 1e9}
	hw.Proc[host.NvidiaGPU] = host.Resource{Count: 1 + rng.Intn(3), FLOPSPerInst: 1e11}

	now := rng.Float64() * 1e6
	in := Input{
		Now:            now,
		Hardware:       hw,
		Shares:         shares,
		HorizonMin:     rng.Float64() * 3600,
		HorizonMax:     rng.Float64() * 86400,
		DeadlineMargin: float64(rng.Intn(3)) * 60,
		Trace:          rng.Intn(4) == 0,
	}
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		if rng.Intn(2) == 0 {
			in.OnFrac[t] = 0.1 + 0.9*rng.Float64()
		}
	}
	cpuMix := []float64{1, 2, 4}
	gpuMix := []float64{1, 0.5, 1.0 / 3, 0.25}
	// Per project and type: a mixed group, or one fractional usage.
	var gpuOne [8]float64
	for p := range gpuOne {
		gpuOne[p] = gpuMix[1+rng.Intn(3)]
	}
	mixCPU, mixGPU := rng.Intn(2) == 0, rng.Intn(2) == 0

	njobs := 50 + rng.Intn(251)
	a := make([]*Job, njobs)
	b := make([]*Job, njobs)
	for i := range a {
		p := rng.Intn(nproj)
		j := Job{
			Project:   p,
			Type:      host.CPU,
			Instances: 1,
			Remaining: 60 + rng.Float64()*3000,
			Deadline:  now + rng.Float64()*2*86400,
		}
		if mixCPU && p%2 == 0 {
			j.Instances = cpuMix[rng.Intn(len(cpuMix))]
		}
		if rng.Intn(3) == 0 {
			j.Type = host.NvidiaGPU
			j.Instances = gpuOne[p]
			if mixGPU && p%2 == 1 {
				j.Instances = gpuMix[rng.Intn(len(gpuMix))]
			}
		}
		cp := j
		a[i] = &j
		b[i] = &cp
	}
	in.Jobs = a
	return in, a, b
}

// TestGoldenCompare checks that the Simulator produces bit-identical
// results to the frozen reference implementation on seeded random
// workloads — every Result field and every per-job output, compared
// with ==, no tolerance. The shallow family covers every input
// corner; the deep family drains exact groups of hundreds of members;
// the wide, drain and mixed families reach each way a step keeps or
// rebuilds its seats: partial seats and finishes in the same step,
// allocations that hold and ones that change as groups cap and empty,
// and groups of mixed or fractional Instances.
func TestGoldenCompare(t *testing.T) {
	sim := New() // reused across cases to exercise scratch-buffer reuse
	for _, fam := range []struct {
		name  string
		seeds int64
		gen   func(*rand.Rand) (Input, []*Job, []*Job)
	}{
		{"shallow", 200, randomWorkload},
		{"deep", 12, deepWorkload},
		{"wide", 40, wideWorkload},
		{"drain", 200, drainWorkload},
		{"mixed", 100, mixedWorkload},
	} {
		for seed := int64(0); seed < fam.seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in, jobsNew, jobsRef := fam.gen(rng)

			in.Jobs = jobsRef
			want := referenceRun(in)
			in.Jobs = jobsNew
			got := sim.Run(in)

			if got.ShortfallMin != want.ShortfallMin || got.ShortfallMax != want.ShortfallMax ||
				got.Saturated != want.Saturated || got.IdleNow != want.IdleNow ||
				got.NumEndangered != want.NumEndangered {
				t.Fatalf("%s seed %d: Result mismatch\n got %+v\nwant %+v", fam.name, seed, got, want)
			}
			if len(got.Trace) != len(want.Trace) {
				t.Fatalf("%s seed %d: trace length %d != %d", fam.name, seed, len(got.Trace), len(want.Trace))
			}
			for i := range got.Trace {
				if got.Trace[i] != want.Trace[i] {
					t.Fatalf("%s seed %d: trace step %d: got %+v want %+v", fam.name, seed, i, got.Trace[i], want.Trace[i])
				}
			}
			for i := range jobsNew {
				g, w := jobsNew[i], jobsRef[i]
				// Compare bit patterns so +Inf == +Inf and the test would
				// catch a NaN regression too.
				if math.Float64bits(g.ProjectedFinish) != math.Float64bits(w.ProjectedFinish) ||
					g.Endangered != w.Endangered {
					t.Fatalf("%s seed %d job %d: got finish=%v endangered=%v, want finish=%v endangered=%v",
						fam.name, seed, i, g.ProjectedFinish, g.Endangered, w.ProjectedFinish, w.Endangered)
				}
			}
		}
	}
}

// TestPackageRunMatchesSimulator pins the compat wrapper to the method.
func TestPackageRunMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in, jobsNew, jobsRef := randomWorkload(rng)
	in.Jobs = jobsRef
	want := New().Run(in)
	in.Jobs = jobsNew
	got := Run(in)
	if got.ShortfallMin != want.ShortfallMin || got.ShortfallMax != want.ShortfallMax ||
		got.Saturated != want.Saturated || got.IdleNow != want.IdleNow ||
		got.NumEndangered != want.NumEndangered {
		t.Fatalf("Run wrapper diverged: %+v vs %+v", got, want)
	}
}

// benchWorkload builds a deterministic workload of the given size.
// Deadlines are spread so some jobs are endangered, and remaining times
// differ so the simulation takes many completion steps (the worst case
// for the per-step scans).
func benchWorkload(njobs, nproj int) Input {
	rng := rand.New(rand.NewSource(7))
	shares := make([]float64, nproj)
	for p := range shares {
		shares[p] = float64(1 + rng.Intn(10))
	}
	hw := &host.Hardware{}
	hw.Proc[host.CPU] = host.Resource{Count: 4, FLOPSPerInst: 1e9}
	hw.Proc[host.NvidiaGPU] = host.Resource{Count: 1, FLOPSPerInst: 1e11}
	jobs := make([]*Job, njobs)
	for i := range jobs {
		j := &Job{
			Project:   rng.Intn(nproj),
			Type:      host.CPU,
			Instances: 1,
			Remaining: 100 + rng.Float64()*20000,
			Deadline:  rng.Float64() * 4 * 86400,
		}
		if i%8 == 0 {
			j.Type = host.NvidiaGPU
		}
		jobs[i] = j
	}
	return Input{
		Hardware:       hw,
		Shares:         shares,
		HorizonMin:     3600,
		HorizonMax:     86400,
		DeadlineMargin: 120,
		Jobs:           jobs,
	}
}

var benchSizes = []struct {
	name        string
	jobs, nproj int
}{
	{"small", 10, 2},
	{"medium", 100, 10},
	{"jobheavy", 1500, 20},
}

// BenchmarkRRSim measures the Simulator across workload sizes; Run only
// writes job output fields, so the input is safely reused across
// iterations.
func BenchmarkRRSim(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			in := benchWorkload(sz.jobs, sz.nproj)
			sim := New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Run(in)
			}
		})
	}
}

// BenchmarkRRSimReference measures the frozen pre-Simulator code on the
// same workloads, keeping the before/after comparison reproducible.
func BenchmarkRRSimReference(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			in := benchWorkload(sz.jobs, sz.nproj)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				referenceRun(in)
			}
		})
	}
}
