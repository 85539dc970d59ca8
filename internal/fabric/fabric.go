// Package fabric is the distributed population-study layer: a
// crash-tolerant coordinator that leases contiguous scenario shards to
// workers over a small JSON-over-HTTP wire protocol, collects
// their partial aggregates, and merges them into the study a single
// process would have produced (DESIGN.md §14).
//
// The correctness story leans entirely on two properties the rest of
// the repo already guarantees: every scenario is a pure function of
// (seed, index), and the population aggregates are pure functions of
// the folded sample multiset (exact sums, integer counts — see
// internal/stats and population.MergeStudies). The fabric therefore
// only has to get *coverage* right — every scenario folded exactly
// once, by some worker, eventually — and bit-identical output falls
// out. Workers checkpoint their shard locally (the same atomic
// checkpoint files a single-process study writes), so kill -9 and
// restart resumes mid-shard; the coordinator persists reported shard
// aggregates and its spec, so it can be restarted too.
//
// Concurrency: this package owns no goroutines. The coordinator is a
// set of http.Handlers sharing one mutex (the caller owns the
// http.Server and its goroutines; lease expiry is evaluated lazily at
// request time, so no timer goroutine exists either), and the worker
// is a single sequential loop on the caller's goroutine — parallelism
// inside a shard comes from runner.Batch, across shards from running
// more workers (goroutines or processes).
package fabric

import (
	"fmt"

	"bce/internal/population"
	"bce/internal/scenario"
)

// Spec pins down one sharded study completely: any two processes
// holding equal Specs will sample, shard, and fold the exact same
// population. The coordinator is the source of truth — workers receive
// the spec with their lease rather than trusting local flags.
type Spec struct {
	// Seed, Combos and Population define the scenario population,
	// exactly as in population.Params.
	Seed       int64                     `json:"seed"`
	Combos     []population.Combo        `json:"combos"`
	Population scenario.PopulationParams `json:"population"`
	// Scenarios is the whole-study scenario count, split over Shards
	// contiguous ranges.
	Scenarios int `json:"scenarios"`
	Shards    int `json:"shards"`
	// BatchSize tunes each worker's fold loop; it affects throughput,
	// never results.
	BatchSize int `json:"batch_size,omitempty"`
}

// Validate reports whether the spec describes a runnable study.
func (s *Spec) Validate() error {
	if s.Scenarios <= 0 {
		return fmt.Errorf("fabric: no scenarios in spec")
	}
	if s.Shards <= 0 {
		return fmt.Errorf("fabric: no shards in spec")
	}
	if s.Shards > s.Scenarios {
		return fmt.Errorf("fabric: %d shards for %d scenarios; shards must not outnumber scenarios",
			s.Shards, s.Scenarios)
	}
	return nil
}

// ShardRange returns the contiguous scenario range [lo, lo+n) owned by
// shard i. The split is balanced: the first Scenarios%Shards shards get
// one extra scenario. Ranges tile [0, Scenarios) exactly.
func (s *Spec) ShardRange(i int) (lo, n int) {
	base := s.Scenarios / s.Shards
	extra := s.Scenarios % s.Shards
	if i < extra {
		return i * (base + 1), base + 1
	}
	return extra*(base+1) + (i-extra)*base, base
}

// Params builds the population.Params for shard i. The caller supplies
// execution details (RunBatch, CheckpointPath, Progress).
func (s *Spec) Params(i int) (population.Params, error) {
	if i < 0 || i >= s.Shards {
		return population.Params{}, fmt.Errorf("fabric: shard %d outside [0,%d)", i, s.Shards)
	}
	lo, n := s.ShardRange(i)
	return population.Params{
		Combos:     s.Combos,
		Scenarios:  n,
		Lo:         lo,
		Seed:       s.Seed,
		Population: s.Population,
		BatchSize:  s.BatchSize,
	}, nil
}
