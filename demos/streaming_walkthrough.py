"""
Streaming updates and the entropy ledger
=========================================

The streaming estimator never revisits old observations. It fits an opening
batch once, then absorbs one observation at a time: the coefficient
distributions from the previous step become the prior for the next, while
the error distribution starts fresh each time. The KL divergence between
consecutive coefficient distributions is logged per step, so the ledger
shows exactly how much each arrival moved the model.
"""

import numpy as np

from gcestream import (
    GceProblem,
    SimulationConfig,
    SupportGrid,
    build_error_support,
    expectation,
    generate_dataset,
    init_stream,
    solve_gce,
    update_step,
)

BETA_ROW = (-100.0, -50.0, 0.0, 50.0, 100.0)


def coefficients(state):
    # the carried prior is a (J, K) weight array, one row per coefficient;
    # each estimate is its row's expectation over the matching support row
    return expectation(state.beta_prior, state.supports.beta_support)


dataset = generate_dataset(SimulationConfig(n=24, seed=7))
design = np.column_stack([np.ones(24), dataset.x])

# fit the opening batch of 8 observations from a uniform prior
batch_y, batch_x = dataset.y[:8], design[:8]
error_row = build_error_support(batch_y)
grid = SupportGrid.tiled(BETA_ROW, design.shape[1], error_row, 8)
state, batch_solution = init_stream(GceProblem(y=batch_y, x=batch_x, supports=grid))
print("batch estimate:      ", np.round(batch_solution.beta_hat, 3))

# absorb the remaining 16 observations one at a time
print("\n step  ledger entry   running intercept and slopes")
for i in range(8, 24):
    state = update_step(state, dataset.y[i], design[i], error_row)
    entry = state.entropy_ledger[-1]
    print(f"  {i:3d}     {entry:9.2e}   {np.round(coefficients(state), 3)}")

print("\nfinal stream estimate:", np.round(coefficients(state), 3))
print("ledger total:", round(sum(state.entropy_ledger), 6))

# the one-shot fit on all 24 observations, for comparison
full_row = build_error_support(dataset.y)
full_grid = SupportGrid.tiled(BETA_ROW, design.shape[1], full_row, 24)
one_shot = solve_gce(GceProblem(y=dataset.y, x=design, supports=full_grid))
print("one-shot estimate:   ", np.round(one_shot.beta_hat, 3))

# a consistent observation barely moves the model, a surprising one jolts it
predicted = float(design[-1] @ coefficients(state))
calm = update_step(state, predicted, design[-1], error_row)
jolt = update_step(state, predicted + 30.0, design[-1], error_row)
print("\nledger entry for a perfectly predicted arrival:", f"{calm.entropy_ledger[-1]:.2e}")
print("ledger entry for the same arrival shifted +30:  ", f"{jolt.entropy_ledger[-1]:.2e}")
