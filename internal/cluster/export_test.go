package cluster

import "repro/internal/consolidation"

// Test-only exports for the external cluster_test package, which may
// import packages that import this one, such as internal/scenario.

// PlacedHost is one host of a finished run's end placement.
type PlacedHost = placedHost

// RunPlaced runs cfg like Run and also returns the end placement.
var RunPlaced = runPlaced

// ReportViolations lists every physics invariant a report and its end
// placement break for cfg.
var ReportViolations = reportViolations

// RaceEnabled reports whether the race detector instruments this build.
const RaceEnabled = raceEnabled

// StartRun builds a run of cfg as Run does, and returns the policy view
// the run plans on (nil without a policy) and the run itself, which
// also returns the end placement.
func StartRun(cfg Config) (*consolidation.View, func() (*Report, []PlacedHost, error), error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	return e.pview, func() (*Report, []PlacedHost, error) {
		rep, err := e.run()
		if err != nil {
			return nil, nil, err
		}
		return rep, endPlacement(e), nil
	}, nil
}
