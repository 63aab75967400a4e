package cluster

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
