// Package account implements the two resource-share accounting schemes
// of paper §3.1, which turn a project's resource share and its history
// of actual usage into scheduling and work-fetch priorities:
//
//   - Local accounting: a per-(project, processor-type) debt D(P,T)
//     that grows in proportion to the project's share and shrinks as it
//     uses instances of that type.
//   - Global accounting: REC(P), an exponentially-decayed average of
//     the peak FLOPS used by the project across all processor types.
//
// Both implement Accounting; the scheduling and fetch policies consume
// the interface so any scheme can back any policy.
package account

import (
	"math"

	"bce/internal/host"
	"bce/internal/invariant"
)

// Accounting converts usage history into priorities. Implementations
// are not safe for concurrent use; the client is single-threaded.
type Accounting interface {
	// Charge records that project p used instSeconds instance-seconds
	// of type t, amounting to flopsSec peak-FLOPS-seconds, during the
	// interval ending at now.
	Charge(now float64, p int, t host.ProcType, instSeconds, flopsSec float64)

	// Update advances share accrual to time now. hasWork reports
	// whether project p currently has runnable or queued jobs of type
	// t; only such projects accrue type-t debt (the paper leaves open
	// whether shares accrue with no jobs available — BOINC's
	// short-term debt does not, and we follow it).
	Update(now float64, hasWork func(p int, t host.ProcType) bool)

	// PrioSched returns the job-scheduling priority of project p for
	// processor type t; higher runs sooner.
	PrioSched(p int, t host.ProcType) float64

	// PrioFetch returns the work-fetch priority of project p; the
	// fetch policies ask the highest-priority project for work.
	PrioFetch(p int) float64

	// Name identifies the scheme ("local" or "global").
	Name() string
}

// maxDebtSeconds caps debt magnitude, like BOINC's short-term debt
// limit, so long droughts don't create unbounded priority swings.
const maxDebtSeconds = 86400

// LocalDebt is the per-processor-type debt scheme.
type LocalDebt struct {
	shares   []float64
	hw       *host.Hardware
	debt     [][host.NumProcTypes]float64 // [project][type]
	lastT    float64
	eligible []bool // Update scratch; cleared per processor type
}

// NewLocalDebt creates local accounting for the given project shares on
// the given hardware.
func NewLocalDebt(shares []float64, hw *host.Hardware) *LocalDebt {
	return &LocalDebt{
		shares: shares,
		hw:     hw,
		debt:   make([][host.NumProcTypes]float64, len(shares)),
	}
}

// Name implements Accounting.
func (l *LocalDebt) Name() string { return "local" }

// Charge implements Accounting: usage reduces type debt.
func (l *LocalDebt) Charge(now float64, p int, t host.ProcType, instSeconds, flopsSec float64) {
	if p < 0 || p >= len(l.debt) {
		return
	}
	l.debt[p][t] -= instSeconds
}

// Update implements Accounting: projects with type-t work accrue
// share_frac·dt·ninst(t) of type-t debt; debts are then offset to zero
// mean across those projects and clamped.
func (l *LocalDebt) Update(now float64, hasWork func(p int, t host.ProcType) bool) {
	dt := now - l.lastT
	if dt < 0 {
		dt = 0
	}
	l.lastT = now
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		ninst := float64(l.hw.Proc[t].Count)
		if ninst == 0 {
			continue
		}
		if cap(l.eligible) < len(l.shares) {
			l.eligible = make([]bool, len(l.shares))
		}
		eligible := l.eligible[:len(l.shares)]
		clear(eligible)
		var shareSum float64
		n := 0
		for p, s := range l.shares {
			if s > 0 && hasWork(p, t) {
				eligible[p] = true
				shareSum += s
				n++
			}
		}
		if n == 0 || shareSum <= 0 {
			continue
		}
		if dt > 0 {
			for p := range l.shares {
				if eligible[p] {
					l.debt[p][t] += float64(l.shares[p] / shareSum * dt * ninst)
				}
			}
		}
		// Normalise eligible debts to zero mean, clamp.
		var mean float64
		for p := range l.shares {
			if eligible[p] {
				mean += l.debt[p][t]
			}
		}
		mean /= float64(n)
		for p := range l.shares {
			if eligible[p] {
				l.debt[p][t] -= mean
			}
		}
		if invariant.Enabled {
			// Debt conservation: normalising to zero mean means debt is
			// only ever redistributed among the eligible projects, never
			// created or destroyed (clamping below is the one sanctioned
			// exception, so the check runs before it).
			var sum, scale float64
			for p := range l.shares {
				if eligible[p] {
					sum += l.debt[p][t]
					scale += math.Abs(l.debt[p][t])
				}
			}
			invariant.Check(math.Abs(sum) <= 1e-9*(1+scale),
				"account: type-%v debt not conserved: eligible sum %v after zero-mean normalisation", t, sum)
		}
		for p := range l.shares {
			if !eligible[p] {
				continue
			}
			if l.debt[p][t] > maxDebtSeconds*ninst {
				l.debt[p][t] = maxDebtSeconds * ninst
			} else if l.debt[p][t] < -maxDebtSeconds*ninst {
				l.debt[p][t] = -maxDebtSeconds * ninst
			}
		}
	}
}

// PrioSched implements Accounting: PRIO_sched(P,T) = D(P,T).
func (l *LocalDebt) PrioSched(p int, t host.ProcType) float64 {
	if p < 0 || p >= len(l.debt) {
		return 0
	}
	return l.debt[p][t]
}

// PrioFetch implements Accounting: the sum of D(P,T) weighted by the
// peak FLOPS of T (paper §3.1).
func (l *LocalDebt) PrioFetch(p int) float64 {
	if p < 0 || p >= len(l.debt) {
		return 0
	}
	var sum float64
	for t := host.ProcType(0); t < host.NumProcTypes; t++ {
		sum += float64(l.debt[p][t] * l.hw.PeakFLOPS(t))
	}
	return sum
}

// Debt exposes D(P,T) for tests and logging.
func (l *LocalDebt) Debt(p int, t host.ProcType) float64 { return l.debt[p][t] }

// DefaultRECHalfLife is BOINC's REC averaging half-life (10 days).
const DefaultRECHalfLife = 10 * 86400

// GlobalREC is the cross-processor-type scheme: one exponentially
// decayed peak-FLOPS average per project.
type GlobalREC struct {
	shares   []float64
	halfLife float64
	rec      []float64
	lastT    float64
}

// NewGlobalREC creates global accounting with the given averaging
// half-life (seconds); halfLife <= 0 uses DefaultRECHalfLife.
func NewGlobalREC(shares []float64, halfLife float64) *GlobalREC {
	if halfLife <= 0 {
		halfLife = DefaultRECHalfLife
	}
	return &GlobalREC{
		shares:   shares,
		halfLife: halfLife,
		rec:      make([]float64, len(shares)),
	}
}

// Name implements Accounting.
func (g *GlobalREC) Name() string { return "global" }

// HalfLife returns the averaging half-life A (paper §5.4).
func (g *GlobalREC) HalfLife() float64 { return g.halfLife }

func (g *GlobalREC) decayTo(now float64) {
	if now > g.lastT {
		f := math.Exp2(-(now - g.lastT) / g.halfLife)
		for p := range g.rec {
			g.rec[p] *= f
		}
		g.lastT = now
	}
}

// Charge implements Accounting: REC accumulates peak-FLOPS-seconds
// across all processor types.
func (g *GlobalREC) Charge(now float64, p int, t host.ProcType, instSeconds, flopsSec float64) {
	g.decayTo(now)
	if p >= 0 && p < len(g.rec) {
		g.rec[p] += flopsSec
		if invariant.Enabled {
			invariant.Check(flopsSec >= 0,
				"account: negative REC charge %v for project %d", flopsSec, p)
			invariant.Check(g.rec[p] >= 0 && !math.IsNaN(g.rec[p]) && !math.IsInf(g.rec[p], 0),
				"account: REC for project %d left range: %v", p, g.rec[p])
		}
	}
}

// Update implements Accounting (REC needs only decay; share accrual is
// implicit in the priority formula).
func (g *GlobalREC) Update(now float64, hasWork func(p int, t host.ProcType) bool) {
	g.decayTo(now)
}

// prio is BOINC's published REC priority: −REC_frac(P)/share_frac(P).
// A project that has used less than its share has a higher (less
// negative) priority. The paper's "SHARE(P) REC(P)" formula lost its
// operator in transcription; this form preserves the intended ordering.
func (g *GlobalREC) prio(p int) float64 {
	if p < 0 || p >= len(g.rec) {
		return 0
	}
	var recSum, shareSum float64
	for i := range g.rec {
		recSum += g.rec[i]
		shareSum += g.shares[i]
	}
	if g.shares[p] <= 0 {
		return math.Inf(-1)
	}
	if recSum <= 0 {
		return 0
	}
	recFrac := g.rec[p] / recSum
	shareFrac := g.shares[p] / shareSum
	return -recFrac / shareFrac
}

// PrioSched implements Accounting; global priority is type-independent.
func (g *GlobalREC) PrioSched(p int, t host.ProcType) float64 { return g.prio(p) }

// PrioFetch implements Accounting.
func (g *GlobalREC) PrioFetch(p int) float64 { return g.prio(p) }

// REC exposes the decayed average for tests and logging.
func (g *GlobalREC) REC(now float64, p int) float64 {
	g.decayTo(now)
	return g.rec[p]
}
