// Package core implements the paper's contribution: WAVM3, the
// workload-aware energy model for VM migration (Section IV). It defines
// the regression dataset shape shared with the baseline models, the
// per-phase per-host linear power models of Eqs. 5–7, their training
// pipeline (least squares on a reading subset, Section VI-F), energy
// prediction by integration (Eqs. 3–4), the closed-form estimate of a
// planned migration, and the C1→C2 idle-power bias correction that
// transports coefficients across machine pairs.
//
// Position in the data flow (see ARCHITECTURE.md): internal/experiments
// converts simulated runs into RunRecord rows (one per host role) and
// assembles them into a Dataset; Train fits a Model per migration kind;
// Model.PredictEnergy integrates the fitted per-phase power over an
// observation timeline. Model.Estimate prices a Plan that has not run:
// its features are constant within each phase, so each host's energy is
// each phase's predicted power times the phase's span. CrossValidate and
// the ablation helpers serve the evaluation tables. Everything here is
// deterministic: fold seeds and row orders derive from the dataset
// contents, never from map iteration.
package core
