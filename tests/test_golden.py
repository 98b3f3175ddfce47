"""The package's outputs on fixed inputs, bit for bit, against ``golden.json``.

``make_golden.py`` writes the file; see its docstring for what it pins.
"""

import dataclasses
import json

import numpy as np

import make_golden
from gcestream import solver

GOLDEN = json.loads(make_golden.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_outputs_match_the_golden_file():
    moved = make_golden.mismatches(make_golden.outputs(), GOLDEN["fields"])
    made = ", ".join(f"{k} {v}" for k, v in GOLDEN["made_with"].items())
    assert not moved, f"outputs moved from golden.json (made with {made}):\n" + "\n".join(moved)


def test_a_one_ulp_move_fails_the_golden_check(monkeypatch):
    solve = solver._solve_dual

    def nudged(*args, **kwargs):
        solved = solve(*args, **kwargs)
        beta_hat = solved.point.beta_hat.copy()
        beta_hat[0, 0] = np.nextafter(beta_hat[0, 0], np.inf)
        return solved._replace(point=dataclasses.replace(solved.point, beta_hat=beta_hat))

    monkeypatch.setattr(solver, "_solve_dual", nudged)
    want = {name: GOLDEN["fields"][name] for name in make_golden.solve_outputs()}
    moved = make_golden.mismatches(make_golden.solve_outputs(), want)
    # the objective is read off the point's beta_hat too, so it may move with it
    assert [line for line in moved if not line.startswith("solve/objective_value: ")] == [
        "solve/beta_hat: 1 of 4 values moved, largest by "
        f"{abs(np.spacing(float.fromhex(want['solve/beta_hat']['hex'][0]))):.3e} "
        "absolute and 1 ulp"
    ]
