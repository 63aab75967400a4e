package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/migration"
	"repro/internal/trace"
	"repro/internal/units"
)

// Role distinguishes the two modelled hosts of a migration.
type Role int

// Host roles.
const (
	Source Role = iota
	Target
)

// String names the role as the paper's tables do.
func (r Role) String() string {
	if r == Target {
		return "Target"
	}
	return "Source"
}

// Roles lists both roles in table order.
func Roles() []Role { return []Role{Source, Target} }

// RunRecord is the evaluation unit: one host's view of one migration run,
// carrying the aligned power/feature observations inside [ms, me], the
// measured migration energy, and the per-run aggregates the baseline
// models consume.
type RunRecord struct {
	// Pair is the machine pair (hw.PairM / hw.PairO).
	Pair string
	// Kind is the migration mechanism of the run.
	Kind migration.Kind
	// Role is which endpoint this record describes.
	Role Role
	// RunID identifies the run within its campaign.
	RunID string
	// Scenario labels the experimental point the run belongs to (family,
	// kind and load level). The train/test split stratifies on it so that
	// every point contributes training runs, mirroring the paper's 20%%
	// reading sample which by construction covers every experiment.
	Scenario string
	// Obs are the aligned observations (2 Hz power + features + phase).
	Obs []trace.Observation
	// MeasuredEnergy is the metered ∫P dt over [ms, me].
	MeasuredEnergy units.Joules
	// BytesSent is the state data moved (LIU's DATA input).
	BytesSent units.Bytes
	// VMMem is the migrating VM's memory size (STRUNK's MEM(v) input).
	VMMem units.Bytes
	// MeanBandwidth is the average transfer bandwidth (STRUNK's BW input).
	MeanBandwidth units.BitsPerSecond
}

// Validate rejects unusable records.
func (r *RunRecord) Validate() error {
	if len(r.Obs) < 2 {
		return fmt.Errorf("core: run %s has %d observations, need ≥ 2", r.RunID, len(r.Obs))
	}
	if r.MeasuredEnergy <= 0 {
		return fmt.Errorf("core: run %s has non-positive measured energy", r.RunID)
	}
	return nil
}

// Dataset is a campaign's worth of run records.
type Dataset struct {
	Runs []*RunRecord
}

// Add appends a validated record.
func (d *Dataset) Add(r *RunRecord) error {
	if err := r.Validate(); err != nil {
		return err
	}
	d.Runs = append(d.Runs, r)
	return nil
}

// Len returns the record count.
func (d *Dataset) Len() int { return len(d.Runs) }

// Filter returns the records matching kind and role (any pair).
func (d *Dataset) Filter(kind migration.Kind, role Role) []*RunRecord {
	var out []*RunRecord
	for _, r := range d.Runs {
		if r.Kind == kind && r.Role == role {
			out = append(out, r)
		}
	}
	return out
}

// FilterPair returns the records for one machine pair, kind and role.
func (d *Dataset) FilterPair(pair string, kind migration.Kind, role Role) []*RunRecord {
	var out []*RunRecord
	for _, r := range d.Runs {
		if r.Pair == pair && r.Kind == kind && r.Role == role {
			out = append(out, r)
		}
	}
	return out
}

// SplitReadings partitions every record's observations into a training and
// a test view, taking trainFrac of the *readings* (not the runs) uniformly
// at random — the paper trains on "the 20% of the readings obtained by
// running our experiments". Records keep their identity; the split returns
// two datasets whose records share RunIDs but hold disjoint observations.
// Records too small to split contribute everything to training.
func (d *Dataset) SplitReadings(trainFrac float64, seed int64) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, errors.New("core: trainFrac must be in (0,1)")
	}
	rng := rand.New(rand.NewSource(seed))
	train, test = &Dataset{}, &Dataset{}
	for _, r := range d.Runs {
		n := len(r.Obs)
		idx := rng.Perm(n)
		k := int(float64(n) * trainFrac)
		if k < 2 {
			k = n // too few readings to split; keep whole run for training
		}
		pick := make(map[int]bool, k)
		for _, i := range idx[:k] {
			pick[i] = true
		}
		tr := cloneShallow(r)
		te := cloneShallow(r)
		for i, o := range r.Obs {
			if pick[i] {
				tr.Obs = append(tr.Obs, o)
			} else {
				te.Obs = append(te.Obs, o)
			}
		}
		sortObs(tr.Obs)
		sortObs(te.Obs)
		if len(tr.Obs) >= 2 {
			train.Runs = append(train.Runs, tr)
		}
		if len(te.Obs) >= 2 {
			test.Runs = append(test.Runs, te)
		}
	}
	if train.Len() == 0 {
		return nil, nil, errors.New("core: split produced an empty training set")
	}
	return train, test, nil
}

// SplitRuns partitions whole runs: trainFrac of the runs go to training.
// The split is stratified by (kind, role) so that every model the campaign
// trains — live and non-live, source and target — sees training examples,
// even on small campaigns. Used where the unit of observation is a run
// (the LIU and STRUNK baselines) and for the shared train/test partition
// of the comparison tables.
func (d *Dataset) SplitRuns(trainFrac float64, seed int64) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, errors.New("core: trainFrac must be in (0,1)")
	}
	if len(d.Runs) < 2 {
		return nil, nil, errors.New("core: need at least two runs to split")
	}
	type stratum struct {
		kind     migration.Kind
		role     Role
		scenario string
	}
	groups := make(map[stratum][]*RunRecord)
	var order []stratum
	for _, r := range d.Runs {
		s := stratum{r.Kind, r.Role, r.Scenario}
		if _, seen := groups[s]; !seen {
			order = append(order, s)
		}
		groups[s] = append(groups[s], r)
	}
	rng := rand.New(rand.NewSource(seed))
	train, test = &Dataset{}, &Dataset{}
	for _, s := range order {
		runs := groups[s]
		if len(runs) < 2 {
			// Too small to split: train on it, never test.
			train.Runs = append(train.Runs, runs...)
			continue
		}
		idx := rng.Perm(len(runs))
		k := int(float64(len(runs)) * trainFrac)
		if k < 1 {
			k = 1
		}
		if k >= len(runs) {
			k = len(runs) - 1
		}
		for i, j := range idx {
			if i < k {
				train.Runs = append(train.Runs, runs[j])
			} else {
				test.Runs = append(test.Runs, runs[j])
			}
		}
	}
	return train, test, nil
}

func cloneShallow(r *RunRecord) *RunRecord {
	c := *r
	c.Obs = nil
	return &c
}

func sortObs(obs []trace.Observation) {
	sort.Slice(obs, func(i, j int) bool { return obs[i].At < obs[j].At })
}

// EnergyModel is the common contract of WAVM3 and the baselines: predict
// the migration energy of one run-record.
type EnergyModel interface {
	// Name identifies the model in comparison tables.
	Name() string
	// PredictEnergy estimates Emigr(h, v) for the record.
	PredictEnergy(r *RunRecord) (units.Joules, error)
}
