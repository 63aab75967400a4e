package core

import "repro/internal/stats"

// The references, for campaign_test.go, which builds its datasets through
// package experiments and so lives outside the package.
var (
	TrainRef         = trainRef
	CrossValidateRef = crossValidateRef
	PredictEnergyRef = predictEnergyRef
)

// EvaluateEnergyRef is EvaluateEnergy over predictEnergyRef.
func EvaluateEnergyRef(m *Model, recs []*RunRecord) (stats.ErrorReport, error) {
	return EvaluateEnergy(refModel{m}, recs)
}

// RaceEnabled reports whether the race detector instruments this build.
const RaceEnabled = raceEnabled
