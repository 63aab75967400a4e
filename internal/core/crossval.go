package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/migration"
	"repro/internal/stats"
)

// CVResult is the outcome of a k-fold cross-validation of WAVM3 on one
// migration kind: per role, the NRMSE of each fold plus summary moments.
// Cross-validation is an extension over the paper's single 20/80 split —
// it answers whether the reported accuracy is split-luck or a property of
// the model.
type CVResult struct {
	Kind  migration.Kind
	Folds int
	// PerRole maps each role to its per-fold NRMSE values.
	PerRole map[Role][]float64
}

// MeanNRMSE returns the fold-average NRMSE for a role.
func (c *CVResult) MeanNRMSE(role Role) float64 { return stats.Mean(c.PerRole[role]) }

// StdNRMSE returns the fold standard deviation for a role.
func (c *CVResult) StdNRMSE(role Role) float64 { return stats.StdDev(c.PerRole[role]) }

// CrossValidate runs k-fold cross-validation over a campaign dataset for
// one migration kind. Folding is per (role, scenario) stratum so that each
// training fold keeps coverage of every experimental point, mirroring the
// stratified train/test split.
func CrossValidate(ds *Dataset, kind migration.Kind, k int, seed int64) (*CVResult, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("core: empty dataset for cross-validation")
	}
	if k < 2 {
		return nil, errors.New("core: cross-validation needs k ≥ 2")
	}
	out := &CVResult{Kind: kind, Folds: k, PerRole: make(map[Role][]float64)}

	// Stratified fold assignment: shuffle each (role, scenario) group and
	// deal its runs round-robin into folds. Groups are processed in sorted
	// key order and fold datasets assembled in dataset row order — fold
	// membership and training row order must derive from the seed and the
	// data alone, never from Go's randomised map iteration, or repeated
	// cross-validations of one dataset disagree in the last digits.
	foldOf := make(map[*RunRecord]int)
	groups := make(map[string][]*RunRecord)
	var keys []string
	var inKind []*RunRecord
	for _, r := range ds.Runs {
		if r.Kind != kind {
			continue
		}
		inKind = append(inKind, r)
		key := fmt.Sprintf("%v|%s", r.Role, r.Scenario)
		if _, seen := groups[key]; !seen {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], r)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: no %v records to cross-validate", kind)
	}
	sort.Strings(keys)
	for gi, key := range keys {
		recs := groups[key]
		folds, err := stats.KFold(len(recs), min(k, len(recs)), seed+int64(gi))
		if err != nil {
			// Groups smaller than k rotate through folds deterministically.
			for i, r := range recs {
				foldOf[r] = i % k
			}
			continue
		}
		for fi, fold := range folds {
			for _, idx := range fold {
				foldOf[recs[idx]] = fi
			}
		}
	}

	for fold := 0; fold < k; fold++ {
		train, test := &Dataset{}, &Dataset{}
		for _, r := range inKind {
			if foldOf[r] == fold {
				test.Runs = append(test.Runs, r)
			} else {
				train.Runs = append(train.Runs, r)
			}
		}
		if train.Len() == 0 || test.Len() == 0 {
			return nil, fmt.Errorf("core: fold %d is degenerate (%d train / %d test)", fold, train.Len(), test.Len())
		}
		model, err := Train(train, kind)
		if err != nil {
			return nil, fmt.Errorf("core: fold %d: %w", fold, err)
		}
		for _, role := range Roles() {
			recs := test.Filter(kind, role)
			if len(recs) < 2 {
				continue
			}
			rep, err := EvaluateEnergy(model, recs)
			if err != nil {
				return nil, fmt.Errorf("core: fold %d %v: %w", fold, role, err)
			}
			out.PerRole[role] = append(out.PerRole[role], rep.NRMSE)
		}
	}
	for _, role := range Roles() {
		if len(out.PerRole[role]) == 0 {
			return nil, fmt.Errorf("core: cross-validation produced no %v folds", role)
		}
	}
	return out, nil
}
