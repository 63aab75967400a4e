// Package trace represents the time-series data the paper's methodology is
// built on: instantaneous power samples from the AC-side meters and the
// aligned resource-utilisation features recorded dstat-style. It provides
// the numerical operations the evaluation needs — trapezoidal energy
// integration, migration-phase segmentation, resampling, averaging across
// repeated runs — plus CSV encoding for the figure data.
//
// Position in the data flow (see ARCHITECTURE.md): every simulated run
// (internal/sim) produces a PowerTrace per host and a FeatureTrace per
// host; the migration engine contributes the phase Boundaries (ms, ts,
// te, me). EnergyByPhase turns a power trace plus boundaries into the
// paper's four per-phase energy metrics, and Align zips power and
// features into the Observation rows that regression datasets
// (internal/core) are built from. Window lookups (Slice, EnergyBetween,
// Align's migration window) use sort.Search over the monotone sample
// times; walks that query a whole span in time order (Align's feature
// join, Resample, AverageTraces) move forward cursors instead. Traces
// are treated as immutable once a run completes, which is what lets the
// run cache share them between hits.
package trace
