import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from gcestream import (
    REPORT_FILES,
    ConfigError,
    ScenarioConfig,
    SimulationConfig,
    build_error_support,
    generate_dataset,
    parse_experiment_config,
    rmse,
    run_cell,
    run_experiment,
    run_stream,
    save_dataset_csv,
    solve_file,
)
from gcestream import experiments
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
    ],
)
def test_malformed_simulation_values_are_config_errors(tmp_path, capsys, key, value):
    raw = tiny_config_dict()
    raw["scenarios"][0][key] = value
    with pytest.raises(ConfigError, match=r"scenarios\[0\]"):
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
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
    config = parse_experiment_config(tiny_config_dict())
    with pytest.raises(ConfigError, match="jobs"):
        run_experiment(config, out_dir=tmp_path / "out", jobs=jobs)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_rejects_a_bad_jobs_override(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
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
