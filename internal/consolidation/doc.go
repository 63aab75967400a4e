// Package consolidation implements the remaining actor of the paper's
// Figure 1: the consolidation manager that "constantly monitors the load
// of the data centre, selects the VM to be migrated and the target host,
// and finally initiates the migration". The paper's motivation is that
// such managers need migration *energy* predictions to make good
// decisions; this package provides the decision layer that consumes them.
//
// Two placement policies are provided: an energy-aware policy that prices
// every candidate move with a migration-energy model (WAVM3 in practice)
// and packs VMs onto the fewest hosts at minimal migration cost, and a
// classic first-fit-decreasing policy that ignores migration energy — the
// behaviour the paper argues against.
//
// Position in the data flow (see ARCHITECTURE.md): a Policy turns a
// []HostState into a Plan of Moves; the wavm3 package adapts its trained
// Estimator into the CostModel the energy-aware policy prices with, and
// internal/cluster's Executor carries out a finished Plan move by move
// as measured migration simulations. Data-centre scenarios in the scenario library
// (internal/scenario) describe HostStates declaratively and default to
// the first-fit-decreasing policy, the only planner that needs no trained
// model.
package consolidation
