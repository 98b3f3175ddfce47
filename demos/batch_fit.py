"""
Fitting a regression on a finite support grid
==============================================

A cross entropy fit never touches the coefficients directly. Each
coefficient is the expected value of a probability distribution living on a
small fixed grid of support points, and the solver moves those distributions
away from a prior only as far as the data demand. This script simulates a
small dataset, fits it in one shot, and unpacks what the solution object
holds.
"""

import numpy as np

from gcestream import (
    GceProblem,
    SimulationConfig,
    SupportGrid,
    build_error_support,
    generate_dataset,
    rmse,
    solve_gce,
)

# simulate 120 observations of y = 1 + 1*x1 - 2*x2 + 3*x3 + noise
config = SimulationConfig(n=120, seed=42)
dataset = generate_dataset(config)
print("true coefficients:", dataset.intercept, dataset.true_beta)

# the intercept is estimated like any other coefficient, through a column
# of ones prepended to the design
n = dataset.y.size
design = np.column_stack([np.ones(n), dataset.x])

# every coefficient row shares the same five-point support, and every
# observation gets a three-point error support spanning three sample
# standard deviations of y
beta_row = (-100.0, -50.0, 0.0, 50.0, 100.0)
error_row = build_error_support(dataset.y)
print("error support:", np.round(error_row, 2))

grid = SupportGrid.tiled(beta_row, design.shape[1], error_row, n)
problem = GceProblem(y=dataset.y, x=design, supports=grid)
solution = solve_gce(problem)

print("estimated coefficients:", np.round(solution.beta_hat, 4))
print("converged:", solution.diagnostics.converged,
      "after", solution.diagnostics.iterations, "iterations")
print("in-sample rmse:", round(rmse(dataset.y, dataset.x, solution.beta_hat), 4))

# the distribution behind one coefficient: row j of the (J, K) weight array
# belongs to coefficient j, and most of its mass sits on the support points
# bracketing the estimate
weights = solution.distributions.beta[1]
print("weights for the first slope:")
for point, weight in zip(beta_row, weights):
    print(f"  z = {point:6.1f}  weight = {weight:.4f}")
