// Package scenario is the declarative scenario subsystem: a versioned,
// struct-tagged JSON specification that compiles into the simulation
// types the rest of the codebase executes, so that adding a new
// experimental scenario is a data change (one file under scenarios/)
// rather than a Go-code change.
//
// A Spec describes one scenario end to end — the machine pair (including
// heterogeneous "src/dst" mixes from the hw catalog), the migration
// mechanism, the migrating guest and its workload, co-located load VMs,
// an optional workload-phase timeline (steady/burst/diurnal/ramp from
// internal/workload), migration-engine and power-meter overrides, repeat
// policy, and, for data-centre scenarios, a host population with an
// optional explicit move plan. Compile checks a Spec and lowers it in one
// pass into sim.Scenario values (one per phase), a plan for the cluster
// package's executor or a prepared cluster timeline, rejecting bad specs with pathed errors
// ("phases[2].duration_s: …") that point at the offending JSON field.
// Validate is Compile with the result dropped.
//
// Determinism and caching: a Spec pins every random choice. Its seed is
// either given explicitly or derived from the scenario name with a stable
// FNV-1a hash, and per-phase seeds derive from that by index, so the
// sim.Scenario values a spec compiles to — which are also the run-cache
// keys — are identical across sessions. Loading and running the same
// scenario file twice, with or without the cache, yields bit-identical
// results.
//
// The registry half of the package (Load, LoadDir, LoadGlob) reads
// scenario files from disk with strict JSON decoding (unknown fields, a
// repeated key and a key that matches a field only without regard to
// case are errors, catching typos in committed scenarios), keeps each
// spec's validating compile for Compile to return, and cross-file checks:
// within one directory, scenario names and effective seeds must be
// unique, keeping library entries independent samples and their cache
// identities distinct. List builds the catalog of a loaded spec set.
//
// The committed library lives in scenarios/ at the repository root and is
// executed by cmd/wavm3scen; see ARCHITECTURE.md for where this package
// sits in the data flow.
package scenario
