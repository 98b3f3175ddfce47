import concurrent.futures
import csv
import dataclasses
import gc
import json
import math
import re
import weakref

import numpy as np
import pytest

from gcestream import (
    REPORT_FILES,
    ConfigError,
    ScenarioConfig,
    SimulationConfig,
    SolverSettings,
    build_error_support,
    generate_dataset,
    parse_experiment_config,
    rmse,
    run_cell,
    run_experiment,
    run_stream,
    save_dataset_csv,
    solve_file,
    write_report_csv,
    write_report_json,
    write_summary_csv,
    write_summary_json,
)
from gcestream import (
    GceProblem,
    GceSolution,
    InfeasibleObservationError,
    JointDistribution,
    SupportGrid,
    solve_gce,
)
from gcestream import core, experiments, solver, streaming
from gcestream.cli import main

rng = np.random.default_rng(577215)


def tiny_config_dict(**overrides):
    base = {
        "scenarios": [
            {
                "name": "base",
                "n": 16,
                "batch_fractions": [0.5],
                "block_sizes": [1],
            }
        ],
        "replications": 2,
        "seed_base": 7,
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_minimal_config_fills_defaults():
    config = parse_experiment_config(
        {"scenarios": [{"name": "a", "n": 16}], "replications": 1, "seed_base": 0}
    )
    scenario = config.scenarios[0]
    assert scenario.eta_grid == (0.0,)
    assert scenario.batch_fractions == (0.25, 0.5, 0.75)
    assert scenario.block_sizes == (1,)
    assert scenario.gamma == 0.5
    assert config.jobs == 1
    assert config.include_timings is False


def test_true_beta_implies_the_regressor_count():
    config = parse_experiment_config(
        {
            "scenarios": [{"name": "a", "n": 16, "true_beta": [2.0, -1.0]}],
            "replications": 1,
            "seed_base": 0,
        }
    )
    sim = config.scenarios[0].simulation
    assert sim.n_regressors == 2
    assert sim.true_beta == (2.0, -1.0)


def test_every_config_field_is_accepted_and_carried_through():
    simulation = {
        "n": 30,
        "n_regressors": 3,
        "true_beta": [2.0, -1.0, 0.5],
        "intercept": -4.0,
        "x_low": -1.0,
        "x_high": 7.0,
        "noise_sd": 0.25,
        "collinear_columns": [0, 2],
        "beta_support": [-20.0, 0.0, 20.0],
    }
    protocol = {
        "name": "every",
        "eta_grid": [0.0, 0.3],
        "batch_fractions": [0.4],
        "block_sizes": [2, 5],
        "run_std": True,
        "gamma": 0.35,
        "error_points": 5,
        "error_scale": "cumulative",
        "estimate_intercept": True,
    }
    # a field added to either config must be added here too
    sim_fields = {f.name for f in dataclasses.fields(SimulationConfig)}
    assert set(simulation) == sim_fields - {"eta", "standardize", "seed"}
    scenario_fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert set(protocol) == scenario_fields - {"simulation"}
    config = parse_experiment_config(
        {"scenarios": [{**simulation, **protocol}], "replications": 1, "seed_base": 0}
    )
    (scenario,) = config.scenarios
    for key, value in protocol.items():
        assert getattr(scenario, key) == (tuple(value) if isinstance(value, list) else value)
    for key, value in simulation.items():
        parsed = getattr(scenario.simulation, key)
        assert parsed == (tuple(value) if isinstance(value, list) else value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("true_beta", None),
        ("true_beta", 5),
        ("beta_support", 3),
        ("collinear_columns", 1),
        # JSON files may carry NaN and Infinity
        ("noise_sd", math.nan),
        ("noise_sd", math.inf),
        ("intercept", math.nan),
        ("true_beta", [1.0, math.nan, 3.0]),
        ("x_high", math.inf),
        ("beta_support", [-math.inf, 0.0, math.inf]),
        # values of the wrong type, which float() would have taken
        ("intercept", "1"),
        ("intercept", True),
        ("x_low", True),
        ("x_high", True),
        ("noise_sd", True),
        ("true_beta", [True, 2.0, 3.0]),
        ("true_beta", ["0.5", 2.0, 3.0]),
        ("beta_support", [-1.0, "0", 1.0]),
        # a number or a string where a list belongs
        ("block_sizes", 4),
        ("eta_grid", 0.5),
        ("batch_fractions", 0.5),
        ("eta_grid", "0.5"),
        ("true_beta", "123"),
        ("beta_support", {"low": -1.0}),
    ],
)
def test_malformed_simulation_values_are_config_errors(tmp_path, capsys, key, value):
    raw = tiny_config_dict()
    raw["scenarios"][0][key] = value
    listed = {"true_beta", "beta_support", "collinear_columns", "eta_grid", "batch_fractions",
              "block_sizes"}
    named = f"{key} must be a list, got " if key in listed and not isinstance(value, list) else key
    with pytest.raises(ConfigError, match=rf"^scenarios\[0\]: {re.escape(named)}"):
        parse_experiment_config(raw)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario_key, key, value",
    [
        (True, "n", 40.5),
        (True, "n", True),
        (True, "n_regressors", 2.5),
        (True, "collinear_columns", [0.5]),
        (True, "block_sizes", [1.5, 10]),
        (True, "error_points", 3.7),
        (False, "replications", 2.7),
        (False, "replications", True),
        (False, "seed_base", 3.5),
        (False, "jobs", 1.9),
        (False, "include_timings", "false"),
        (False, "include_timings", 1),
        (True, "run_std", 1),
        (True, "estimate_intercept", "no"),
        (True, "eta_grid", ["0.5"]),
        (True, "eta_grid", [True]),
        (True, "batch_fractions", ["0.5"]),
        (True, "batch_fractions", [True]),
        (True, "true_beta", [True, 2.0, 3.0]),
        (True, "intercept", "1"),
        (True, "intercept", True),
        (True, "noise_sd", True),
        (True, "gamma", "0.5"),
        (True, "name", 5),
    ],
)
def test_integer_and_flag_fields_are_not_truncated(tmp_path, capsys, scenario_key, key, value):
    raw = tiny_config_dict()
    (raw["scenarios"][0] if scenario_key else raw)[key] = value
    with pytest.raises(ConfigError, match=key) as info:
        parse_experiment_config(raw)
    if scenario_key:
        assert str(info.value).startswith("scenarios[0]: ")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and key in err


def test_wrong_types_are_value_errors_outside_the_parser():
    cases = [
        (lambda: SimulationConfig(n=16, intercept=True), "^intercept must be a real number"),
        (lambda: SimulationConfig(n=16, true_beta=(1.0, "2", 3.0)), r"^true_beta\[1\] must"),
        (lambda: ScenarioConfig(name=5, simulation=SimulationConfig(n=16)), "^scenario name"),
        (lambda: ScenarioConfig(name="a", simulation=SimulationConfig(n=16), run_std=1),
         "^run_std must be true or false"),
        (lambda: SolverSettings(constraint_tolerance="1e-8"), "^constraint_tolerance must"),
        (lambda: SimulationConfig(n=16, true_beta=5), "^true_beta must be a list, got 5$"),
        (lambda: SimulationConfig(n=16, beta_support="-1 1"), "^beta_support must be a list"),
        (lambda: ScenarioConfig(name="a", simulation=SimulationConfig(n=16), eta_grid=0.5),
         "^eta_grid must be a list, got 0.5$"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()
    assert SimulationConfig(n=16, intercept=2).intercept == 2.0
    assert SimulationConfig(n=16, true_beta=np.array([1, 2, 3])).true_beta == (1.0, 2.0, 3.0)
    assert ScenarioConfig(
        name="a", simulation=SimulationConfig(n=16), block_sizes=np.array([1, 4])
    ).block_sizes == (1, 4)
    assert type(SolverSettings(constraint_tolerance=np.float64(1e-9)).constraint_tolerance) is float


def test_whole_numbers_written_as_floats_are_integers():
    raw = tiny_config_dict(replications=2.0, jobs=1.0)
    raw["scenarios"][0].update(n=16.0, block_sizes=[1.0, 4.0], error_points=5.0)
    config = parse_experiment_config(raw)
    scenario = config.scenarios[0]
    values = (config.replications, config.jobs, scenario.simulation.n, *scenario.block_sizes,
              scenario.error_points)
    assert values == (2, 1, 16, 1, 4, 5)
    assert all(type(v) is int for v in values)


def test_unknown_top_level_key_is_named():
    with pytest.raises(ConfigError, match=r"config: unknown key\(s\) 'replicas'"):
        parse_experiment_config(tiny_config_dict(replicas=3))


def test_unknown_scenario_key_names_its_position():
    bad = tiny_config_dict()
    bad["scenarios"][0]["typo"] = 1
    with pytest.raises(ConfigError, match=r"scenarios\[0\].*'typo'"):
        parse_experiment_config(bad)


def test_unknown_solver_key_is_named():
    with pytest.raises(ConfigError, match=r"config\.solver"):
        parse_experiment_config(tiny_config_dict(solver={"tol": 1e-8}))


@pytest.mark.parametrize("missing", ["scenarios", "replications", "seed_base"])
def test_missing_required_keys_are_reported(missing):
    raw = tiny_config_dict()
    del raw[missing]
    with pytest.raises(ConfigError, match=missing):
        parse_experiment_config(raw)


def test_scenarios_must_be_a_nonempty_list():
    with pytest.raises(ConfigError, match="nonempty list"):
        parse_experiment_config(tiny_config_dict(scenarios=[]))
    with pytest.raises(ConfigError, match="needs at least one scenario"):
        experiments.ExperimentConfig(scenarios=(), replications=1, seed_base=0)


def test_scenario_needs_name_and_n():
    with pytest.raises(ConfigError, match="'name' and 'n'"):
        parse_experiment_config(tiny_config_dict(scenarios=[{"name": "a"}]))


def test_duplicate_scenario_names_rejected():
    raw = tiny_config_dict()
    raw["scenarios"] = [raw["scenarios"][0], dict(raw["scenarios"][0])]
    with pytest.raises(ConfigError, match="unique"):
        parse_experiment_config(raw)


def test_bad_scenario_values_keep_their_position():
    cases = [
        ("eta_grid", [2.0], "eta_grid"),
        ("error_scale", "weekly", "error_scale 'weekly'"),
        ("name", "", "scenario name must be nonempty"),
        ("batch_fractions", [0.0], "batch_fractions must lie in (0, 1]"),
        ("batch_fractions", [1.5], "batch_fractions must lie in (0, 1]"),
        ("block_sizes", [2, 2], "block_sizes must be distinct positive integers"),
        ("block_sizes", [0], "block_sizes must be distinct positive integers"),
        ("gamma", 0.0, "gamma must lie strictly in (0, 1)"),
        ("gamma", 1.0, "gamma must lie strictly in (0, 1)"),
        ("gamma", 1e-308, "gamma must be at least 2**-53"),
        ("error_points", 1, "error_points must be at least 2"),
    ]
    for key, value, fragment in cases:
        raw = tiny_config_dict()
        raw["scenarios"][0][key] = value
        with pytest.raises(ConfigError, match=rf"^scenarios\[0\]: .*{re.escape(fragment)}"):
            parse_experiment_config(raw)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict()), encoding="utf-8")
    config = parse_experiment_config(path)
    assert config.replications == 2
    assert config.scenarios[0].name == "base"


def test_json_syntax_errors_carry_position(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{ nope", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON.*line 1"):
        parse_experiment_config(path)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_experiment_config(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"replications": 0}, "replications"),
        ({"seed_base": -1}, "seed_base"),
        ({"jobs": 0}, "jobs"),
        ({"scenarios": [5]}, r"^scenarios\[0\]: expected an object, got int$"),
    ],
)
def test_top_level_values_are_validated(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_experiment_config(tiny_config_dict(**overrides))


def test_batch_fraction_too_small_for_n():
    with pytest.raises(ConfigError, match="at least 2"):
        ScenarioConfig(
            name="a", simulation=SimulationConfig(n=8), batch_fractions=(0.1,)
        )


def test_empty_block_list_is_allowed():
    scenario = ScenarioConfig(name="a", simulation=SimulationConfig(n=16), block_sizes=())
    assert scenario.block_sizes == ()


def test_standardized_run_needs_an_intercept():
    with pytest.raises(ConfigError, match="estimate_intercept"):
        ScenarioConfig(
            name="a",
            simulation=SimulationConfig(n=16),
            run_std=True,
            estimate_intercept=False,
        )


# ---------------------------------------------------------------------------
# run_cell
# ---------------------------------------------------------------------------


def small_scenario(**overrides):
    defaults = dict(
        name="cell",
        simulation=SimulationConfig(n=20, n_regressors=2),
        batch_fractions=(0.5,),
        block_sizes=(1, 4),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_cell_runs_every_configured_method():
    outcome = run_cell(small_scenario(run_std=True), eta=0.0, seed=5)
    (report,) = outcome.reports
    methods = [(r.method, r.g) for r in report.results]
    assert methods == [
        ("gce_dataset", None),
        ("gce_batch", None),
        ("stre_gce", 1),
        ("stre_gce_block", 4),
        ("stre_gce_std", 1),
    ]
    assert set(outcome.method_seconds) == {
        "gce_dataset",
        "gce_batch@0.5",
        "stre_gce@0.5@g1",
        "stre_gce_block@0.5@g4",
        "stre_gce_std@0.5",
    }
    assert all(r.converged for r in report.results)
    assert all(np.isfinite(r.rmse) for r in report.results)


def test_dataset_level_fit_is_shared_across_fractions():
    outcome = run_cell(
        small_scenario(batch_fractions=(0.25, 0.75), block_sizes=(1,)), eta=0.0, seed=5
    )
    first, second = outcome.reports
    assert first.rmse_of("gce_dataset") == second.rmse_of("gce_dataset")
    assert "gce_dataset" in outcome.method_seconds  # timed once, not per fraction


def test_cell_reports_carry_the_requested_eta_and_seed():
    outcome = run_cell(small_scenario(), eta=0.7, seed=99)
    assert all(r.eta == 0.7 and r.seed == 99 for r in outcome.reports)


def test_block_list_without_one_still_streams():
    outcome = run_cell(small_scenario(block_sizes=(4,)), eta=0.0, seed=5)
    (report,) = outcome.reports
    assert report.rmse_of("stre_gce", g=1) > 0.0
    assert report.rmse_of("stre_gce_block", g=4) > 0.0


def test_known_intercept_variant_runs():
    outcome = run_cell(small_scenario(estimate_intercept=False), eta=0.0, seed=5)
    (report,) = outcome.reports
    assert all(np.isfinite(r.rmse) for r in report.results)


@pytest.mark.parametrize("scale", ["batch", "cumulative", "full"])
def test_alternative_error_scales_run(scale):
    scenario = small_scenario(error_scale=scale)
    outcome = run_cell(scenario, eta=0.0, seed=5)
    (report,) = outcome.reports
    assert all(r.converged for r in report.results)

    ds = generate_dataset(dataclasses.replace(scenario.simulation, seed=5))
    design = np.column_stack([np.ones(ds.n), ds.x])
    m = int(round(0.5 * ds.n))
    if scale == "cumulative":
        error = {"error_scale": "cumulative"}
    else:
        error = {"error_support": build_error_support(ds.y if scale == "full" else ds.y[:m], 3)}
    for method, g in (("stre_gce", 1), ("stre_gce_block", 4)):
        stream = run_stream(
            ds.y, design, batch_size=m, block_size=g,
            beta_support=np.asarray(scenario.simulation.beta_support), **error,
        )
        assert report.rmse_of(method, g=g) == rmse(ds.y, ds.x, stream.beta_hat)


def test_method_times_account_for_the_estimation_section():
    scenario = small_scenario(
        simulation=SimulationConfig(n=120, n_regressors=2), block_sizes=(1, 8)
    )
    outcome = run_cell(scenario, eta=0.0, seed=5)
    parts = sum(outcome.method_seconds.values())
    assert parts <= outcome.estimation_seconds
    slack = outcome.estimation_seconds - parts
    assert slack <= 0.05 * outcome.estimation_seconds + 0.002


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_experiment_writes_every_report_file(tmp_path):
    config = parse_experiment_config(tiny_config_dict())
    outcome = run_experiment(config, out_dir=tmp_path / "out")
    assert outcome.exit_code == 0
    assert outcome.failures == ()
    assert len(outcome.reports) == 2  # 2 replications x 1 fraction
    assert len(outcome.written) == len(REPORT_FILES)
    for name in REPORT_FILES:
        assert (tmp_path / "out" / name).is_file()


def test_experiment_builds_its_report_and_summary_rows_once(tmp_path, monkeypatch):
    # the four tables and the rmse figures are written from one build of
    # each; the gap figure reads the reports' results directly
    built = []
    for name in ("report_rows", "summary_rows"):

        def counted(reports, *args, _name=name, _original=getattr(experiments, name)):
            built.append((_name, len(reports)))
            return _original(reports, *args)

        monkeypatch.setattr(experiments, name, counted)
    config = parse_experiment_config(tiny_config_dict())
    assert run_experiment(config, out_dir=tmp_path).exit_code == 0
    assert [b for b in built if b[1] == 2] == [("report_rows", 2), ("summary_rows", 2)]
    assert set(built) == {("report_rows", 2), ("summary_rows", 2)}


def test_experiment_reruns_byte_identically(tmp_path):
    config = parse_experiment_config(tiny_config_dict())
    run_experiment(config, out_dir=tmp_path / "a")
    run_experiment(config, out_dir=tmp_path / "b")
    for name in REPORT_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_worker_count_never_changes_the_output(tmp_path):
    config = parse_experiment_config(tiny_config_dict())
    run_experiment(config, out_dir=tmp_path / "serial", jobs=1)
    run_experiment(config, out_dir=tmp_path / "pool", jobs=2)
    for name in REPORT_FILES:
        assert (
            (tmp_path / "serial" / name).read_bytes()
            == (tmp_path / "pool" / name).read_bytes()
        )


def no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was created")


@pytest.mark.parametrize("jobs", [0, -2, 2.5, True])
def test_a_bad_jobs_override_is_a_config_error(tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    config = parse_experiment_config(tiny_config_dict())
    with pytest.raises(ConfigError, match="jobs"):
        run_experiment(config, out_dir=tmp_path / "out", jobs=jobs)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_rejects_a_bad_jobs_override(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(tiny_config_dict()), encoding="utf-8")
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--jobs", jobs]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "jobs" in err
    assert not (tmp_path / "out").exists()


def test_removing_a_scenario_leaves_the_other_untouched(tmp_path):
    keep = {"name": "keep", "n": 16, "batch_fractions": [0.5], "block_sizes": [1]}
    drop = {"name": "drop", "n": 18, "batch_fractions": [0.5], "block_sizes": [1]}
    both = parse_experiment_config(
        {"scenarios": [keep, drop], "replications": 2, "seed_base": 3}
    )
    alone = parse_experiment_config(
        {"scenarios": [keep], "replications": 2, "seed_base": 3}
    )
    run_experiment(both, out_dir=tmp_path / "both")
    run_experiment(alone, out_dir=tmp_path / "alone")
    rows_both = json.loads((tmp_path / "both" / "report.json").read_text(encoding="utf-8"))
    rows_alone = json.loads((tmp_path / "alone" / "report.json").read_text(encoding="utf-8"))
    assert [r for r in rows_both if r["n"] == 16] == rows_alone


def infeasible_scenario_dict():
    # a two-point coefficient support of +-0.001 cannot reach responses
    # pushed out to ~1000 by the intercept, so every fit is infeasible
    return {
        "name": "doomed",
        "n": 12,
        "intercept": 1000.0,
        "beta_support": [-0.001, 0.001],
        "batch_fractions": [0.5],
        "block_sizes": [1],
    }


@pytest.mark.parametrize(
    "overrides, error, start",
    [
        (
            {"intercept": 1000.0, "beta_support": [-0.001, 0.001]},
            InfeasibleObservationError,
            "observation(s) 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11 fall outside the attainable hull [",
        ),
        (
            {"beta_support": [-1e200, 0.0, 1e200]},
            ValueError,
            "beta_support row 0 spans [-1e+200, 1e+200], too wide: ",
        ),
    ],
)
def test_a_cell_fails_as_the_problem_of_its_first_one_shot_fit_fails(overrides, error, start):
    # the array checks of the one-shot fits raise what GceProblem raises on
    # the dataset-level problem, the first of the cell
    raw = {**infeasible_scenario_dict(), "intercept": 0.0, **overrides}
    config = parse_experiment_config({"scenarios": [raw], "replications": 1, "seed_base": 1})
    (scenario,) = config.scenarios
    with pytest.raises(error) as got:
        run_cell(scenario, 0.0, 11)
    data = generate_dataset(dataclasses.replace(scenario.simulation, eta=0.0, seed=11))
    design = np.column_stack([np.ones(data.n), data.x])
    row = build_error_support(data.y)
    with pytest.raises(error) as want:
        grid = SupportGrid.tiled(scenario.simulation.beta_support, design.shape[1], row, data.n)
        GceProblem(data.y, design, grid)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(start) and "np." not in str(got.value)


@pytest.mark.parametrize("fractions", [(0.5,), (0.25, 0.5)])
def test_a_cell_solves_arrays_and_shares_one_grid_per_batch_fraction(monkeypatch, fractions):
    # the one-shot fits build no problem, distribution or objective, and the
    # streams of a batch fraction share one grid; a stream that solves its
    # own batch still reports the batch's GceSolution
    counts = {}

    def counted(name, function):
        def counting(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return function(*args, **kwargs)

        return counting

    for cls in (GceProblem, JointDistribution, SupportGrid):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    for module in (core, solver):
        monkeypatch.setattr(module, "kl_divergence", counted("kl", module.kl_divergence))
    # a stream builds its grid from rows it has checked
    grids = counted("SupportGrid", core._prechecked)
    monkeypatch.setattr(
        streaming, "_prechecked",
        lambda cls, **fields: (grids if cls is SupportGrid else core._prechecked)(cls, **fields),
    )
    scenario = small_scenario(run_std=True, batch_fractions=fractions)
    outcome = run_cell(scenario, 0.0, 5)
    assert counts == {"SupportGrid": len(fractions)}
    assert len(outcome.reports) == len(fractions)

    data = generate_dataset(dataclasses.replace(scenario.simulation, eta=0.0, seed=5))
    design = np.column_stack([np.ones(data.n), data.x])
    m, support = 10, scenario.simulation.beta_support
    report = run_stream(data.y, design, m, 1, beta_support=support)
    grid = SupportGrid.tiled(support, design.shape[1], build_error_support(data.y[:m]), m)
    want = solve_gce(GceProblem(data.y[:m], design[:m], grid))
    got = report.batch_solution
    assert type(got) is GceSolution
    for name in ("multipliers", "beta_hat", "epsilon_hat"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.distributions.beta.tobytes() == want.distributions.beta.tobytes()
    assert got.distributions.error.tobytes() == want.distributions.error.tobytes()
    assert (got.objective_value, got.diagnostics) == (want.objective_value, want.diagnostics)


@pytest.mark.parametrize("h", [3, 9])
def test_a_stack_of_one_shot_fits_solves_each_on_its_one_error_row(monkeypatch, h):
    # each problem's row is checked once and solved as one row, and each fit
    # has the bits solve_gce gives its problem alone
    beta_row = np.array([-20.0, -10.0, 0.0, 10.0, 20.0])
    problems = []
    for seed in range(3):
        data = generate_dataset(SimulationConfig(n=40, seed=seed))
        design = np.column_stack([np.ones(data.n), data.x])
        problems.append((data.y, design, np.linspace(-3.0, 3.0, h) * np.std(data.y)))
    checked, shapes = [], []
    error_rows, solve_dual = experiments._error_rows, experiments._solve_dual

    def counted(rows):
        checked.append(np.shape(rows))
        return error_rows(rows)

    def recorded(y, x, zb, ze, qb, qe, *args):
        shapes.append((ze.shape, qe.shape))
        return solve_dual(y, x, zb, ze, qb, qe, *args)

    monkeypatch.setattr(experiments, "_error_rows", counted)
    monkeypatch.setattr(experiments, "_solve_dual", recorded)
    fits = experiments._fit_stack(problems, np.tile(beta_row, (4, 1)), SolverSettings())
    assert checked == [(3, h)] and shapes == [((3, 1, h), (1, h))]
    for (y, x, row), fit in zip(problems, fits):
        want = solve_gce(GceProblem(y, x, SupportGrid.tiled(beta_row, 4, row, y.size)))
        assert fit.beta.tobytes() == want.distributions.beta.tobytes()
        assert fit.beta_hat.tobytes() == want.beta_hat.tobytes()
        assert fit.epsilon_hat.tobytes() == want.epsilon_hat.tobytes()
        assert fit.converged == want.diagnostics.converged


def test_failed_cells_are_recorded_not_fatal(tmp_path):
    config = parse_experiment_config(
        {"scenarios": [infeasible_scenario_dict()], "replications": 2, "seed_base": 1}
    )
    outcome = run_experiment(config, out_dir=tmp_path / "out")
    assert outcome.exit_code == 2
    assert len(outcome.failures) == 2
    assert all("doomed[" in f and "rep=" in f for f in outcome.failures)
    assert outcome.reports == ()
    assert outcome.written == ()


def test_partial_failures_keep_the_healthy_results(tmp_path):
    config = parse_experiment_config(
        {
            "scenarios": [
                {"name": "fine", "n": 16, "batch_fractions": [0.5], "block_sizes": [1]},
                infeasible_scenario_dict(),
            ],
            "replications": 1,
            "seed_base": 1,
        }
    )
    outcome = run_experiment(config, out_dir=tmp_path / "out")
    assert outcome.exit_code == 2
    assert len(outcome.failures) == 1
    assert len(outcome.reports) == 1
    assert (tmp_path / "out" / "report.csv").is_file()


def fold_config():
    """Several scenarios and replications whose streams fold together."""
    return parse_experiment_config(
        {
            "scenarios": [
                {"name": "clean", "n": 40, "batch_fractions": [0.25, 0.5], "block_sizes": [1, 7]},
                {
                    "name": "collinear",
                    "n": 36,
                    "eta_grid": [0.0, 1.0],
                    "batch_fractions": [0.5],
                    "run_std": True,
                },
                {"name": "cumulative", "n": 30, "error_scale": "cumulative",
                 "batch_fractions": [0.5]},
            ],
            "replications": 2,
            "seed_base": 7,
        }
    )


# _derive_seed as hashlib.sha256 computed it, pinned so that no digest change moves a seed
PINNED_SEEDS = {
    (0, "clean", 0, 0): 7955213153831077802,
    (0, "clean", 2, 7): 8121573188424515522,
    (0, "collinear", 0, 0): 3006174212941100413,
    (0, "collinear", 2, 7): 2762196127467669001,
    (0, "cumulative", 0, 0): 104819009659792943,
    (0, "cumulative", 2, 7): 7323338444172521525,
    (0, "bruit-\u00e9\u2211", 0, 0): 13258040901244088649,
    (0, "bruit-\u00e9\u2211", 2, 7): 15673575676729458493,
    (2024, "clean", 0, 0): 5074446718761475853,
    (2024, "clean", 1, 29): 1529904188161421929,
    (2024, "collinear", 0, 0): 10144194797113430860,
    (2024, "collinear", 1, 29): 1036830181396800640,
    (2024, "cumulative", 0, 0): 16916850368579385721,
    (2024, "cumulative", 1, 29): 5099037979790799049,
    (2024, "bruit-\u00e9\u2211", 0, 0): 4820259141812588211,
    (2024, "bruit-\u00e9\u2211", 1, 29): 8310194009402051378,
}


@pytest.mark.parametrize("key", PINNED_SEEDS)
def test_derived_seeds_keep_their_pinned_values(key):
    assert experiments._derive_seed(*key) == PINNED_SEEDS[key]


def cell_seeds(config):
    """(scenario, eta, seed) of every cell, in the order run_experiment runs them."""
    return [
        (scenario, eta, experiments._derive_seed(config.seed_base, scenario.name, ei, rep))
        for scenario in config.scenarios
        for ei, eta in enumerate(scenario.eta_grid)
        for rep in range(config.replications)
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_folded_cells_write_what_each_cell_alone_gives(tmp_path, jobs):
    config = fold_config()
    outcome = run_experiment(config, out_dir=tmp_path / "folded", jobs=jobs)
    assert outcome.exit_code == 0
    reports = [
        report
        for scenario, eta, seed in cell_seeds(config)
        for report in run_cell(scenario, eta, seed, config.solver).reports
    ]
    alone = tmp_path / "alone"
    alone.mkdir()
    write_report_csv(reports, alone / "report.csv")
    write_report_json(reports, alone / "report.json")
    write_summary_csv(reports, alone / "summary.csv")
    write_summary_json(reports, alone / "summary.json")
    for name in ("report.csv", "report.json", "summary.csv", "summary.json"):
        assert (tmp_path / "folded" / name).read_bytes() == (alone / name).read_bytes(), name


def test_a_stream_that_raises_mid_fold_fails_its_cell_only(tmp_path, monkeypatch):
    config = fold_config()
    run_experiment(config, out_dir=tmp_path / "healthy")
    scenario, eta, seed = cell_seeds(config)[4]  # collinear, eta 1, replication 0
    data = generate_dataset(dataclasses.replace(scenario.simulation, eta=eta, seed=seed))
    marker = data.y[25]  # a one-observation step of both its streams, after the batch
    absorb = streaming._absorb

    def failing(carried, zb, y, *args):
        if (y == marker).any():
            raise RuntimeError("injected failure")
        return absorb(carried, zb, y, *args)

    monkeypatch.setattr(streaming, "_absorb", failing)
    outcome = run_experiment(config, out_dir=tmp_path / "failing")
    assert outcome.exit_code == 2
    assert outcome.failures == (f"collinear[eta={eta}, rep=0, seed={seed}]: injected failure",)
    header, healthy = read_table(tmp_path / "healthy" / "report.csv")
    _, failing_rows = read_table(tmp_path / "failing" / "report.csv")
    assert failing_rows == [row for row in healthy if row["seed"] != str(seed)]
    assert len(failing_rows) < len(healthy)


def test_a_one_shot_fit_that_raises_in_its_stack_fails_its_cell_only(tmp_path, monkeypatch):
    config = fold_config()
    run_experiment(config, out_dir=tmp_path / "healthy")
    scenario, eta, seed = cell_seeds(config)[4]  # collinear, eta 1, replication 0
    data = generate_dataset(dataclasses.replace(scenario.simulation, eta=eta, seed=seed))
    marker = data.y[3]  # in every one-shot problem of the cell
    solve = experiments._solve_dual
    stacks = []

    def failing(y, *args):
        if (y == marker).any():
            stacks.append(len(y))
            raise RuntimeError("injected failure")
        return solve(y, *args)

    monkeypatch.setattr(experiments, "_solve_dual", failing)
    outcome = run_experiment(config, out_dir=tmp_path / "failing")
    assert outcome.exit_code == 2
    assert outcome.failures == (f"collinear[eta={eta}, rep=0, seed={seed}]: injected failure",)
    # its problems raised in stacks shared with other cells, then alone
    assert max(stacks) > 1 and stacks.count(1) == 3
    header, healthy = read_table(tmp_path / "healthy" / "report.csv")
    _, failing_rows = read_table(tmp_path / "failing" / "report.csv")
    assert failing_rows == [row for row in healthy if row["seed"] != str(seed)]
    assert len(failing_rows) < len(healthy)


@pytest.mark.parametrize("site", ["planning", "preparation", "scoring"])
def test_a_cell_step_that_raises_fails_its_cell_only(tmp_path, monkeypatch, site):
    config = fold_config()
    run_experiment(config, out_dir=tmp_path / "healthy")
    scenario, eta, seed = cell_seeds(config)[4]  # collinear, eta 1, replication 0
    data = generate_dataset(dataclasses.replace(scenario.simulation, eta=eta, seed=seed))
    marker = data.y[3]  # in every response vector of the cell, and of no other cell
    folded = []

    def raising(name, hit):
        step = getattr(experiments, name)

        def failing(*args, **kwargs):
            if hit(*args):
                raise RuntimeError("injected failure")
            return step(*args, **kwargs)

        monkeypatch.setattr(experiments, name, failing)

    if site == "planning":
        raising("generate_dataset", lambda sim: sim.seed == seed)
    elif site == "preparation":
        raising("_prepare_stream", lambda y, *args: bool((y == marker).any()))
    else:  # scoring: the streams' rmse, after the fold (one-shot fits are scored before it)
        fold = experiments._fold
        monkeypatch.setattr(experiments, "_fold", lambda streams: folded.append(1) or fold(streams))
        raising("rmse", lambda y, *args: bool(folded) and bool((y == marker).any()))
    outcome = run_experiment(config, out_dir=tmp_path / "failing")
    assert outcome.exit_code == 2
    assert outcome.failures == (f"collinear[eta={eta}, rep=0, seed={seed}]: injected failure",)
    assert len(folded) == (site == "scoring")
    _, healthy = read_table(tmp_path / "healthy" / "report.csv")
    _, failing_rows = read_table(tmp_path / "failing" / "report.csv")
    assert failing_rows == [row for row in healthy if row["seed"] != str(seed)]
    assert len(failing_rows) < len(healthy)


@pytest.mark.parametrize("site", ["preparation", "stream"])
def test_a_failed_cell_pins_nothing_of_its_plan(monkeypatch, site):
    # a stored failure keeps its type and message, not its traceback, whose
    # frames would hold the cell's plan (or a stream's lane) while the
    # outcomes are held; with the cycle collector off, only references count
    config = fold_config()
    cells = cell_seeds(config)
    scenario, eta, seed = cells[4]  # collinear, eta 1, replication 0
    marker = generate_dataset(dataclasses.replace(scenario.simulation, eta=eta, seed=seed)).y[20]
    refs = []  # plans compare by value and do not hash, so no WeakSet

    class Counted(experiments._CellPlan):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    if site == "preparation":
        module, name, hit = experiments, "_prepare_stream", lambda y, *args: (y == marker).any()
    else:
        module, name, hit = streaming, "_absorb", lambda carried, zb, y, *args: (y == marker).any()
    step = getattr(module, name)

    def failing(*args, **kwargs):
        if hit(*args):
            raise RuntimeError("injected failure")
        return step(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    monkeypatch.setattr(experiments, "_CellPlan", Counted)
    gc.disable()
    try:
        outcomes = experiments._run_cells([(*cell, config.solver) for cell in cells])
        plans = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert len(refs) == len(cells) and plans == 0
    failed = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, Exception)]
    assert failed == [4]
    assert type(outcomes[4]) is RuntimeError and str(outcomes[4]) == "injected failure"
    with pytest.raises(RuntimeError, match="^injected failure$"):
        run_cell(scenario, eta, seed)


def test_a_failed_cell_in_a_worker_keeps_its_reason(tmp_path):
    # the infeasibility error crosses back from the worker process intact
    raw = {
        "scenarios": [
            {"name": "fine", "n": 16, "batch_fractions": [0.5], "block_sizes": [1]},
            infeasible_scenario_dict(),
        ],
        "replications": 1,
        "seed_base": 1,
    }
    config = parse_experiment_config(raw)
    serial = run_experiment(config, out_dir=tmp_path / "serial", jobs=1)
    pooled = run_experiment(config, out_dir=tmp_path / "pooled", jobs=2)
    assert pooled.failures == serial.failures
    assert "outside the attainable hull" in pooled.failures[0]
    for name in REPORT_FILES:
        pooled_bytes = (tmp_path / "pooled" / name).read_bytes()
        assert pooled_bytes == (tmp_path / "serial" / name).read_bytes(), name


def test_config_out_dir_is_the_default_target(tmp_path):
    config = parse_experiment_config(
        tiny_config_dict(out_dir=str(tmp_path / "from_config"))
    )
    outcome = run_experiment(config)
    assert all(str(tmp_path / "from_config") in path for path in outcome.written)
    assert (tmp_path / "from_config" / "report.csv").is_file()


@pytest.mark.parametrize("out_dir", [5, ["x"], True, False])
def test_a_malformed_out_dir_is_a_config_error(tmp_path, capsys, monkeypatch, out_dir):
    monkeypatch.chdir(tmp_path)  # where a fallback to "out" would write
    raw = tiny_config_dict(out_dir=out_dir)
    with pytest.raises(ConfigError, match="out_dir"):
        parse_experiment_config(raw)
    with pytest.raises(ConfigError, match="out_dir"):
        run_experiment(parse_experiment_config(tiny_config_dict()), out_dir=out_dir)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "out_dir" in err
    assert not (tmp_path / "out").exists()


def test_timings_only_appear_on_request(tmp_path):
    quiet = parse_experiment_config(tiny_config_dict(replications=1))
    timed = parse_experiment_config(tiny_config_dict(replications=1, include_timings=True))
    run_experiment(quiet, out_dir=tmp_path / "quiet")
    run_experiment(timed, out_dir=tmp_path / "timed")
    quiet_rows = json.loads((tmp_path / "quiet" / "report.json").read_text(encoding="utf-8"))
    timed_rows = json.loads((tmp_path / "timed" / "report.json").read_text(encoding="utf-8"))
    assert all(r["wallclock_ms"] is None for r in quiet_rows)
    assert all(r["wallclock_ms"] > 0.0 for r in timed_rows)


def test_eta_grid_spans_cells(tmp_path):
    raw = tiny_config_dict(replications=1)
    raw["scenarios"][0]["eta_grid"] = [0.0, 0.8]
    config = parse_experiment_config(raw)
    outcome = run_experiment(config, out_dir=tmp_path / "out")
    assert sorted({r.eta for r in outcome.reports}) == [0.0, 0.8]


def test_gap_figure_compares_streams_to_the_dataset_fit(tmp_path):
    config = parse_experiment_config(tiny_config_dict())
    run_experiment(config, out_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "fig_gap_vs_batch.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,eta,method,g,batch_fraction,relative_gap_mean,replications"
    methods = {line.split(",")[2] for line in lines[1:]}
    assert methods == {"stre_gce"}
    assert all(int(line.split(",")[-1]) == 2 for line in lines[1:])


def read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), [dict(zip(rows[0], row)) for row in rows[1:]]


def row_order(columns):
    parse = {"n": int, "g": int, "seed": int, "eta": float, "batch_fraction": float}

    def key(row):
        # an empty cell (g of a method without blocks) sorts before every value
        return tuple((row[c] != "", parse.get(c, str)(row[c]) if row[c] else "") for c in columns)

    return key


#: Each figure table's (key columns, value columns); the keys are its row order.
FIGURE_TABLES = {
    "fig_rmse_vs_n.csv": (("method", "eta", "batch_fraction", "g", "n"), ("rmse_mean",)),
    "fig_rmse_vs_eta.csv": (("n", "method", "batch_fraction", "g", "eta"), ("rmse_mean",)),
    "fig_gap_vs_batch.csv": (
        ("n", "eta", "method", "g", "batch_fraction"),
        ("relative_gap_mean", "replications"),
    ),
}


def test_figure_tables_hold_the_summary_and_the_recomputed_gaps(tmp_path):
    raw = tiny_config_dict(replications=2)
    raw["scenarios"][0].update(block_sizes=[1, 4], eta_grid=[0.0, 0.5])
    run_experiment(parse_experiment_config(raw), out_dir=tmp_path)
    _, report = read_table(tmp_path / "report.csv")
    _, summary = read_table(tmp_path / "summary.csv")
    table_order = ("n", "eta", "batch_fraction", "method", "g")
    assert report == sorted(report, key=row_order(table_order + ("seed",)))
    assert summary == sorted(summary, key=row_order(table_order))

    tables = {}
    for name, (keys, values) in FIGURE_TABLES.items():
        header, rows = read_table(tmp_path / name)
        assert header == keys + values
        assert rows == sorted(rows, key=row_order(keys))
        assert any(r["g"] == "" for r in rows) == (name != "fig_gap_vs_batch.csv")
        tables[name] = rows

    for name in ("fig_rmse_vs_n.csv", "fig_rmse_vs_eta.csv"):
        header = sum(FIGURE_TABLES[name], ())
        projected = sorted(tuple(r[c] for c in header) for r in summary)
        assert sorted(tuple(r[c] for c in header) for r in tables[name]) == projected

    reference = {
        (r["n"], r["eta"], r["batch_fraction"], r["seed"]): float(r["rmse"])
        for r in report
        if r["method"] == "gce_dataset"
    }
    gaps = {}
    for r in report:
        if r["method"].startswith("stre_gce"):
            ref = reference[(r["n"], r["eta"], r["batch_fraction"], r["seed"])]
            cell = (r["n"], r["eta"], r["method"], r["g"], r["batch_fraction"])
            gaps.setdefault(cell, []).append((float(r["rmse"]) - ref) / ref)
    rows = tables["fig_gap_vs_batch.csv"]
    assert {(r["n"], r["eta"], r["method"], r["g"], r["batch_fraction"]) for r in rows} == set(gaps)
    assert {r["method"] for r in rows} == {"stre_gce", "stre_gce_block"}
    for r in rows:
        terms = gaps[(r["n"], r["eta"], r["method"], r["g"], r["batch_fraction"])]
        assert int(r["replications"]) == len(terms) == 2
        assert math.isclose(
            float(r["relative_gap_mean"]), sum(terms) / len(terms), rel_tol=1e-12, abs_tol=0.0
        )


def test_an_exact_fit_writes_every_report_file_and_an_empty_gap_table(tmp_path, capsys):
    raw = {
        "scenarios": [
            {
                "name": "flat",
                "n": 40,
                "true_beta": [0, 0, 0],
                "intercept": 0,
                "noise_sd": 0,
                "batch_fractions": [0.5],
            }
        ],
        "replications": 1,
        "seed_base": 1,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    for name in REPORT_FILES:
        assert (tmp_path / "out" / name).is_file()
    _, report = read_table(tmp_path / "out" / "report.csv")
    assert [float(r["rmse"]) for r in report if r["method"] == "gce_dataset"] == [0.0]
    header, rows = read_table(tmp_path / "out" / "fig_gap_vs_batch.csv")
    assert header == sum(FIGURE_TABLES["fig_gap_vs_batch.csv"], ())
    assert rows == []


def test_simulate_into_an_existing_file_is_an_error_before_any_cell(
    tmp_path, capsys, monkeypatch
):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiments, "run_cell", no_cell)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(tiny_config_dict()), encoding="utf-8")
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(blocker)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "taken" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert blocker.read_text(encoding="utf-8") == "not a directory"


# ---------------------------------------------------------------------------
# solve_file
# ---------------------------------------------------------------------------


def write_dataset(tmp_path, n=32, seed=4, noise_sd=1.0):
    data = generate_dataset(SimulationConfig(n=n, seed=seed, noise_sd=noise_sd, n_regressors=2))
    path = tmp_path / "data.csv"
    save_dataset_csv(path, data.y, data.x)
    return path, data


def test_solve_file_whole_dataset_mode(tmp_path):
    path, data = write_dataset(tmp_path)
    outcome = solve_file(path)
    assert outcome.mode == "gce"
    assert outcome.n == data.n
    assert outcome.batch_size == data.n
    assert outcome.entropy_ledger.size == 0
    assert outcome.converged
    assert outcome.rmse < 3.0


def test_solve_file_matches_the_in_memory_stream(tmp_path):
    path, data = write_dataset(tmp_path)
    outcome = solve_file(path, "stre", batch_fraction=0.5)
    m = int(round(0.5 * data.n))
    design = np.column_stack([np.ones(data.n), data.x])
    stream = run_stream(
        data.y,
        design,
        batch_size=m,
        block_size=1,
        beta_support=np.asarray((-100.0, -50.0, 0.0, 50.0, 100.0)),
        error_support=build_error_support(data.y[:m], 3),
    )
    np.testing.assert_allclose(outcome.beta_hat, stream.beta_hat, atol=1e-12)
    assert outcome.batch_size == m
    assert outcome.block_size == 1


def test_block_mode_ledger_counts_blocks(tmp_path):
    path, data = write_dataset(tmp_path)
    outcome = solve_file(path, "block", batch_fraction=0.5, block_size=4)
    assert outcome.block_size == 4
    assert outcome.entropy_ledger.size == 4  # 16 streamed rows in blocks of 4


def test_one_row_file_takes_the_fallback_support(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("y,x1\n2.5,1.0\n", encoding="utf-8")
    streamed = solve_file(path, "stre")
    direct = solve_file(path, "gce")
    assert streamed.n == streamed.batch_size == 1
    np.testing.assert_allclose(streamed.beta_hat, direct.beta_hat, atol=1e-12)
    assert streamed.skipped == ()


def test_constant_response_file_still_solves(tmp_path):
    path = tmp_path / "flat.csv"
    rows = "\n".join(f"4.2,{v}" for v in range(1, 7))
    path.write_text("y,x1\n" + rows + "\n", encoding="utf-8")
    outcome = solve_file(path)
    assert outcome.converged
    assert np.isfinite(outcome.rmse)


def test_near_flat_response_file_still_solves(tmp_path, capsys):
    # responses one ulp apart: too flat for the three-sigma rule, not exactly constant
    path = tmp_path / "near_flat.csv"
    ys = [1e6, float(np.nextafter(1e6, 2e6)), 1e6, 1e6]
    rows = "\n".join(f"{y!r},{v}" for y, v in zip(ys, range(1, 5)))
    path.write_text("y,x1\n" + rows + "\n", encoding="utf-8")
    outcome = solve_file(path)
    assert np.all(np.isfinite(outcome.beta_hat))
    assert np.isfinite(outcome.rmse)
    assert main(["solve", str(path)]) == 0
    assert "rmse:" in capsys.readouterr().out


def test_cumulative_scale_widens_after_a_flat_batch(tmp_path):
    path = tmp_path / "flat_batch.csv"
    ys = [4.0] * 6 + [1.0, 9.0, -3.0, 12.0, 0.5, 7.0]
    rows = "\n".join(f"{y!r},{v}" for v, y in enumerate(ys, start=1))
    path.write_text("y,x1\n" + rows + "\n", encoding="utf-8")
    frozen = solve_file(path, "stre", batch_fraction=0.5, error_scale="batch")
    widening = solve_file(path, "stre", batch_fraction=0.5, error_scale="cumulative")
    assert frozen.batch_size == widening.batch_size == 6
    assert np.all(np.isfinite(widening.beta_hat))
    assert np.max(np.abs(widening.beta_hat - frozen.beta_hat)) > 0.0


def test_standardized_fit_reports_response_scale_error(tmp_path):
    path, data = write_dataset(tmp_path)
    plain = solve_file(path)
    std = solve_file(path, standardize=True)
    assert np.isfinite(std.rmse)
    assert abs(std.rmse - plain.rmse) < 2.0


@pytest.mark.parametrize(
    "call, name, whole",
    [
        ("run_stream", "batch_size", 10),
        ("run_stream", "block_size", 2),
        ("run_stream", "error_points", 3),
        ("run_stream_error_support", "error_points", 3),
        ("solve_file", "block_size", 2),
        ("solve_file", "error_points", 3),
    ],
)
def test_sizes_are_whole_numbers_and_never_truncated(tmp_path, call, name, whole):
    path, data = write_dataset(tmp_path)
    design = np.column_stack([np.ones(data.n), data.x])
    sizes = {"block_size": 2, "error_points": 3}

    def fit(**given):
        if call.startswith("run_stream"):
            kwargs = {"batch_size": 10, **sizes, **given}
            if call == "run_stream_error_support":  # error_points is checked all the same
                kwargs["error_support"] = [-30.0, 0.0, 30.0]
            return run_stream(data.y, design, beta_support=[-100.0, 0.0, 100.0], **kwargs)
        return solve_file(path, "block", **{**sizes, **given})

    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {whole + 0.5}$"):
        fit(**{name: whole + 0.5})
    outside = {"batch_size": (-1, data.n + 1), "block_size": (0,), "error_points": (1, -5)}
    for value in outside.get(name, ()):
        with pytest.raises(ValueError, match=rf"^{name} must "):
            fit(**{name: value})
    assert np.array_equal(fit(**{name: float(whole)}).beta_hat, fit(**{name: whole}).beta_hat)


def test_solve_file_validates_its_arguments(tmp_path):
    path, _ = write_dataset(tmp_path)
    with pytest.raises(ValueError, match="mode"):
        solve_file(path, "nope")
    for fraction in (0.0, True, "0.5", math.nan, 1.5):
        with pytest.raises(ValueError, match="batch_fraction"):
            solve_file(path, "stre", batch_fraction=fraction)
    for mode in ("gce", "stre", "block"):
        with pytest.raises(ValueError, match="error_scale"):
            solve_file(path, mode, error_scale="weekly")
        with pytest.raises(ValueError, match="error_points must be at least 2, got 1"):
            solve_file(path, mode, error_points=1)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_gen_writes_a_loadable_file(tmp_path, capsys):
    out = tmp_path / "gen.csv"
    assert main(["gen", "--out", str(out), "--seed", "5", "--n", "30"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert out.is_file()


def test_cli_gen_rejects_impossible_sizes(tmp_path, capsys):
    code = main(["gen", "--out", str(tmp_path / "x.csv"), "--seed", "1", "--n", "2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_solve_prints_named_coefficients(tmp_path, capsys):
    path, _ = write_dataset(tmp_path)
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mode: gce" in out
    assert "intercept:" in out
    assert "x1:" in out
    assert "rmse:" in out


def test_cli_solve_block_mode_prints_the_ledger(tmp_path, capsys):
    path, _ = write_dataset(tmp_path)
    code = main(["solve", str(path), "--mode", "block", "--block-size", "4",
                 "--batch-fraction", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "block: 4" in out
    assert "entropy ledger" in out


def test_cli_solve_stream_mode_prints_the_skipped_observations(tmp_path, capsys):
    data = generate_dataset(SimulationConfig(n=32, seed=4, n_regressors=2))
    y = data.y.copy()
    y[20] = 1e7  # after the batch of 8, outside every hull
    path = tmp_path / "data.csv"
    save_dataset_csv(path, y, data.x)
    assert main(["solve", str(path), "--mode", "stre"]) == 0
    out = capsys.readouterr().out
    assert "skipped infeasible observations: [20]\n" in out


def test_cli_parser_is_built_once_and_each_call_parses_its_own_argv(tmp_path, monkeypatch):
    from gcestream import cli

    seen = []
    monkeypatch.setattr(cli, "_cmd_solve", lambda args: seen.append(vars(args)) or 0)
    path = str(tmp_path / "data.csv")
    assert main(["solve", path, "--mode", "block", "--std", "--gamma", "0.3"]) == 0
    assert main(["solve", path]) == 0
    assert cli._build_parser() is cli._build_parser()
    flags = ("mode", "std", "gamma", "block_size")
    assert [tuple(args[k] for k in flags) for args in seen] == [
        ("block", True, 0.3, 2), ("gce", False, 0.5, 2)
    ]


def test_cli_solve_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_simulate_runs_a_config(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(tiny_config_dict(replications=1)), encoding="utf-8")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("wrote") == len(REPORT_FILES)
    assert "1 scenario cells" in out


def test_cli_simulate_rejects_bad_configs(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("{ nope", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_cli_simulate_reports_failed_cells(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {"scenarios": [infeasible_scenario_dict()], "replications": 1, "seed_base": 1}
        ),
        encoding="utf-8",
    )
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "failed:" in capsys.readouterr().err
