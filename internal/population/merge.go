// Merging shard studies back into a whole-population study, plus the
// parameter-diff helper that keeps resumes honest. MergeStudies is the
// coordinator's reduce step: because the per-combo aggregates are pure
// functions of the folded sample multiset (exact sums, integer bucket
// and win counts — see internal/stats), merging complete shards of a
// population in any order produces state bit-identical to one process
// folding the whole range.
package population

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
)

// MergeStudies merges complete shard studies of the same population
// into a single study covering their combined range. The shards must
// share seed, combos, population parameters and checkpoint version,
// each must be finished (Done == Target), and their ranges must tile a
// contiguous span without gaps or overlap. The inputs are not
// modified; the result is independent state.
//
// Merge order does not matter: the shards are sorted by range before
// folding, and the underlying aggregates are associative and
// commutative, so any grouping of merges yields identical bits.
func MergeStudies(parts []*Study) (*Study, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("population: merge of zero studies")
	}
	sorted := make([]*Study, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })

	first := sorted[0]
	out, err := cloneStudy(first)
	if err != nil {
		return nil, err
	}
	for _, st := range sorted {
		if st.Done != st.Target {
			return nil, fmt.Errorf("population: shard [%d,%d) is incomplete (%d of %d scenarios)",
				st.Lo, st.Lo+st.Target, st.Done, st.Target)
		}
	}
	for i := 1; i < len(sorted); i++ {
		st := sorted[i]
		if err := sameSpec(first, st); err != nil {
			return nil, err
		}
		if want := out.Lo + out.Target; st.Lo != want {
			if st.Lo < want {
				return nil, fmt.Errorf("population: shard [%d,%d) overlaps merged range [%d,%d)",
					st.Lo, st.Lo+st.Target, out.Lo, want)
			}
			return nil, fmt.Errorf("population: gap before shard [%d,%d): merged range ends at %d",
				st.Lo, st.Lo+st.Target, want)
		}
		for c := range out.Aggs {
			out.Aggs[c].merge(&st.Aggs[c])
		}
		for pi := range out.Pairs {
			if err := out.Pairs[pi].Merge(st.Pairs[pi]); err != nil {
				return nil, err
			}
		}
		out.Target += st.Target
		out.Done += st.Done
	}
	return out, nil
}

// cloneStudy deep-copies a study through its JSON encoding — the same
// round trip a checkpoint takes, which is exact for all aggregate
// state.
func cloneStudy(st *Study) (*Study, error) {
	blob, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("population: clone study: %w", err)
	}
	out := &Study{}
	if err := json.Unmarshal(blob, out); err != nil {
		return nil, fmt.Errorf("population: clone study: %w", err)
	}
	return out, nil
}

// sameSpec verifies two studies describe the same population.
func sameSpec(a, b *Study) error {
	if a.Version != b.Version {
		return fmt.Errorf("population: merging different checkpoint versions (%d vs %d)", a.Version, b.Version)
	}
	if a.Seed != b.Seed {
		return fmt.Errorf("population: merging different seeds (%d vs %d)", a.Seed, b.Seed)
	}
	if !reflect.DeepEqual(a.Combos, b.Combos) {
		return fmt.Errorf("population: merging different combo sets (%v vs %v)", a.Combos, b.Combos)
	}
	ap, _ := json.Marshal(a.Population) //bce:errok plain struct of scalars; Marshal cannot fail
	bp, _ := json.Marshal(b.Population) //bce:errok plain struct of scalars; Marshal cannot fail
	if string(ap) != string(bp) {
		return fmt.Errorf("population: merging different population params (%s vs %s)", ap, bp)
	}
	return nil
}

// ParamDiff is one disagreement between a checkpoint and the
// parameters of the run trying to resume it.
type ParamDiff struct {
	Field      string // flag-style name, e.g. "seed", "combos", "days"
	Checkpoint string // value recorded in the checkpoint
	Want       string // value requested by the current run
}

func (d ParamDiff) String() string {
	return fmt.Sprintf("%s: checkpoint has %s, flags say %s", d.Field, d.Checkpoint, d.Want)
}

// DiffParams compares a checkpoint's recorded population spec against
// freshly requested parameters and reports every field that disagrees.
// An empty result means the checkpoint can safely absorb the run;
// anything else means folding would silently mix incompatible
// aggregates, and the caller must refuse. Scenario counts are not
// diffed here: Run extends a checkpoint that covers fewer scenarios
// than asked and refuses one that covers more.
func DiffParams(st *Study, p Params) []ParamDiff {
	var diffs []ParamDiff
	if st.Seed != p.Seed {
		diffs = append(diffs, ParamDiff{"seed", fmt.Sprint(st.Seed), fmt.Sprint(p.Seed)})
	}
	combos := p.Combos
	if len(combos) == 0 {
		combos = DefaultCombos()
	}
	if !reflect.DeepEqual(st.Combos, combos) {
		diffs = append(diffs, ParamDiff{"combos", comboList(st.Combos), comboList(combos)})
	}
	cp, wp := st.Population, p.Population
	if cp.DurationDays != wp.DurationDays {
		diffs = append(diffs, ParamDiff{"days", fmt.Sprint(cp.DurationDays), fmt.Sprint(wp.DurationDays)})
	}
	if cp.MaxProjects != wp.MaxProjects {
		diffs = append(diffs, ParamDiff{"max-projects", fmt.Sprint(cp.MaxProjects), fmt.Sprint(wp.MaxProjects)})
	}
	if d := diffFrac("gpu-frac", cp.GPUFraction, wp.GPUFraction); d != nil {
		diffs = append(diffs, *d)
	}
	if d := diffFrac("sporadic-frac", cp.SporadicFrac, wp.SporadicFrac); d != nil {
		diffs = append(diffs, *d)
	}
	if st.Lo != p.Lo {
		diffs = append(diffs, ParamDiff{"shard offset", fmt.Sprint(st.Lo), fmt.Sprint(p.Lo)})
	}
	return diffs
}

func comboList(cs []Combo) string {
	out := ""
	for i, c := range cs {
		if i > 0 {
			out += ","
		}
		out += c.String()
	}
	return out
}

func diffFrac(field string, a, b *float64) *ParamDiff {
	fv := func(p *float64) string {
		if p == nil {
			return "default"
		}
		return fmt.Sprint(*p)
	}
	switch {
	case a == nil && b == nil:
		return nil
	case a != nil && b != nil && *a == *b:
		return nil
	}
	return &ParamDiff{field, fv(a), fv(b)}
}
