package core

import (
	"testing"

	"repro/internal/migration"
)

// Allocation ceilings of the fit. Train gathers each (role, phase) into
// one flat buffer and builds one design per fit attempt, so its
// allocations count fits, not observations: on synthDataset(Live, 8, 2),
// whose 16 records hold 1,692 observations, one Train measured 125
// objects and one 4-fold CrossValidate 695, where trainRef and
// crossValidateRef, with a row slice per observation, measure 3,616 and
// 11,368. Each ceiling is the measured count plus 20% of slack.
const (
	trainAllocCeiling    = 150
	crossValAllocCeiling = 835
)

func TestTrainAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ds := synthDataset(migration.Live, 8, 2)
	var err error
	allocs := testing.AllocsPerRun(10, func() { _, err = Train(ds, migration.Live) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Train allocates %v objects", allocs)
	if allocs > trainAllocCeiling {
		t.Errorf("Train allocates %v objects, ceiling %d", allocs, trainAllocCeiling)
	}
}

func TestCrossValidateAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ds := synthDataset(migration.Live, 8, 2)
	var err error
	allocs := testing.AllocsPerRun(10, func() { _, err = CrossValidate(ds, migration.Live, 4, 1) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4-fold CrossValidate allocates %v objects", allocs)
	if allocs > crossValAllocCeiling {
		t.Errorf("4-fold CrossValidate allocates %v objects, ceiling %d", allocs, crossValAllocCeiling)
	}
}
