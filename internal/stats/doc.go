// Package stats implements the numerical estimation tools the paper's
// evaluation relies on and which have no Go standard-library equivalent:
// dense linear algebra (Householder QR), ordinary least squares, the
// error metrics used in Tables V and VII (MAE, RMSE, NRMSE), and the
// variance-convergence rule that decides how many experimental runs are
// enough.
//
// Position in the data flow (see ARCHITECTURE.md): stats is a leaf
// dependency with no knowledge of migrations or power — internal/core and
// internal/baseline fit their models through OLS here, and
// sim.Cache.RunRepeatedCtx stops repeating when VarianceConverged says
// the paper's 10% rule holds. Entry points: NewMatrix, OLS, NonNegativeOLS,
// DesignMatrix, MAE, RMSE, NRMSE, VarianceConverged, KFold.
package stats
