import math
import warnings

import numpy as np
import pytest

from gcestream import (
    DEFAULT_BETA_SUPPORT,
    Dataset,
    SimulationConfig,
    apply_multicollinearity,
    build_error_support,
    generate_dataset,
    load_dataset_csv,
    save_dataset_csv,
    standardize_columns,
)
from gcestream.simulation import ERROR_SCALES, _scaled_error_support

rng = np.random.default_rng(271828)


# ---------------------------------------------------------------------------
# generation protocol
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_the_dataset_bitwise():
    config = SimulationConfig(n=50, seed=1234, eta=0.4)
    a = generate_dataset(config)
    b = generate_dataset(config)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.residuals, b.residuals)


def test_different_seeds_differ():
    a = generate_dataset(SimulationConfig(n=50, seed=1))
    b = generate_dataset(SimulationConfig(n=50, seed=2))
    assert not np.array_equal(a.y, b.y)


def test_regressor_moments_match_the_uniform_law():
    data = generate_dataset(SimulationConfig(n=100_000, seed=9, n_regressors=2))
    assert data.x.mean() == pytest.approx(10.0, abs=0.1)
    assert data.x.var() == pytest.approx(100.0 / 3.0, abs=1.0)


def test_noise_is_centered_with_requested_spread():
    data = generate_dataset(SimulationConfig(n=100_000, seed=10, noise_sd=2.0))
    assert data.residuals.mean() == pytest.approx(0.0, abs=0.05)
    assert data.residuals.std(ddof=1) == pytest.approx(2.0, abs=0.05)


def test_noiseless_configuration_is_exactly_linear():
    data = generate_dataset(SimulationConfig(n=25, seed=3, noise_sd=0.0))
    assert np.all(data.residuals == 0.0)
    np.testing.assert_allclose(data.y, data.intercept + data.x @ data.true_beta, atol=1e-12)


@pytest.mark.parametrize(
    "j, expected",
    [(1, (1.0,)), (3, (1.0, -2.0, 3.0)), (5, (1.0, -2.0, 3.0, -4.0, 5.0))],
)
def test_default_coefficients_alternate_in_sign(j, expected):
    config = SimulationConfig(n=10, n_regressors=j)
    assert config.true_beta == expected


def test_metadata_records_the_draw():
    data = generate_dataset(SimulationConfig(n=30, seed=77, eta=0.25))
    assert data.metadata["generator"] == "philox"
    assert data.metadata["seed"] == 77
    assert data.metadata["eta"] == 0.25
    assert data.metadata["s_y"] == pytest.approx(float(data.y.std(ddof=1)))


def test_stored_components_always_rebuild_y():
    data = generate_dataset(SimulationConfig(n=40, seed=5, eta=0.8, standardize=True))
    rebuilt = data.intercept + data.x @ data.true_beta + data.residuals
    np.testing.assert_allclose(rebuilt, data.y, atol=1e-12)


def test_dataset_rejects_components_that_miss_y():
    data = generate_dataset(SimulationConfig(n=12, seed=6))
    parts = dict(y=data.y, x=data.x, true_beta=data.true_beta, intercept=data.intercept,
                 residuals=data.residuals, metadata=data.metadata)
    # a non-finite component leaves a NaN gap, which must fail as a large one does
    for name, shift in [("y", 1.0), ("y", math.nan), ("intercept", math.nan),
                        ("true_beta", math.inf), ("residuals", -math.inf)]:
        with pytest.raises(ValueError, match="miss y"):
            Dataset(**{**parts, name: parts[name] + shift})


# ---------------------------------------------------------------------------
# multicollinearity dial
# ---------------------------------------------------------------------------


def test_eta_zero_returns_the_column_unchanged():
    col = rng.uniform(0.0, 20.0, size=64)
    factor = rng.uniform(0.0, 20.0, size=64)
    assert np.array_equal(apply_multicollinearity(col, factor, 0.0), col)


def test_eta_one_replaces_the_column_by_the_factor():
    col = rng.uniform(0.0, 20.0, size=64)
    factor = rng.uniform(0.0, 20.0, size=64)
    assert np.array_equal(apply_multicollinearity(col, factor, 1.0), factor)


def test_mixing_preserves_the_variance_identity():
    col = rng.uniform(0.0, 20.0, size=5000)
    factor = rng.uniform(0.0, 20.0, size=5000)
    mixed = apply_multicollinearity(col, factor, 0.6)
    expected = (
        0.36 * factor.var(ddof=1)
        + 0.64 * col.var(ddof=1)
        + 2.0 * 0.6 * 0.8 * np.cov(col, factor, ddof=1)[0, 1]
    )
    assert mixed.var(ddof=1) == pytest.approx(expected, rel=1e-10)


# the blend approaches eta = 1 along a square root, so the top edge moves
# like sqrt(2 * delta) while the bottom edge moves like delta
@pytest.mark.parametrize(
    "edge, near, bound", [(0.0, 1e-9, 1e-6), (1.0, 1.0 - 1e-9, 1e-3)]
)
def test_mixing_is_continuous_at_the_endpoints(edge, near, bound):
    col = rng.uniform(0.0, 20.0, size=200)
    factor = rng.uniform(0.0, 20.0, size=200)
    at_edge = apply_multicollinearity(col, factor, edge)
    nearby = apply_multicollinearity(col, factor, near)
    assert np.max(np.abs(at_edge - nearby)) < bound


def test_eta_one_makes_collinear_columns_identical():
    data = generate_dataset(SimulationConfig(n=40, seed=8, eta=1.0))
    assert np.array_equal(data.x[:, 0], data.x[:, 1])
    assert np.array_equal(data.x[:, 1], data.x[:, 2])


def test_eta_touches_only_the_named_columns():
    base = generate_dataset(SimulationConfig(n=40, seed=13, eta=0.0))
    mixed = generate_dataset(
        SimulationConfig(n=40, seed=13, eta=0.9, collinear_columns=(0, 2))
    )
    assert np.array_equal(base.x[:, 1], mixed.x[:, 1])
    assert not np.array_equal(base.x[:, 0], mixed.x[:, 0])
    assert not np.array_equal(base.x[:, 2], mixed.x[:, 2])


@pytest.mark.parametrize("eta", [-0.1, 1.1, math.nan])
def test_mixing_rejects_eta_outside_the_unit_interval(eta):
    with pytest.raises(ValueError, match="eta"):
        apply_multicollinearity(np.zeros(3), np.zeros(3), eta)


def test_mixing_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        apply_multicollinearity(np.zeros(3), np.zeros(4), 0.5)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def test_standardize_two_point_column_by_hand():
    std, means, sds = standardize_columns(np.array([[0.0], [20.0]]))
    assert means[0] == pytest.approx(10.0)
    assert sds[0] == pytest.approx(math.sqrt(200.0))
    np.testing.assert_allclose(std[:, 0], [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])


def test_standardized_columns_have_unit_moments():
    mat = rng.uniform(-5.0, 5.0, size=(200, 4))
    std, _, _ = standardize_columns(mat)
    np.testing.assert_allclose(std.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(std.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_standardization_names_the_flat_column():
    mat = np.column_stack([np.arange(5.0), np.full(5, 7.0)])
    with pytest.raises(ValueError, match="column 1"):
        standardize_columns(mat)


def test_standardization_needs_two_rows():
    with pytest.raises(ValueError, match="two rows"):
        standardize_columns(np.array([[1.0, 2.0]]))


def test_standardized_dataset_keeps_predictions():
    raw = generate_dataset(SimulationConfig(n=60, seed=21))
    std = generate_dataset(SimulationConfig(n=60, seed=21, standardize=True))
    assert np.array_equal(raw.y, std.y)
    raw_pred = raw.intercept + raw.x @ raw.true_beta
    std_pred = std.intercept + std.x @ std.true_beta
    np.testing.assert_allclose(std_pred, raw_pred, atol=1e-10)
    assert std.metadata["raw_intercept"] == raw.intercept
    assert tuple(std.metadata["raw_true_beta"]) == tuple(raw.true_beta)


# ---------------------------------------------------------------------------
# error support construction
# ---------------------------------------------------------------------------


def test_error_support_from_two_values_by_hand():
    row = build_error_support([0.0, 2.0])
    s = math.sqrt(2.0)
    np.testing.assert_allclose(row, [-3.0 * s, 0.0, 3.0 * s])


@pytest.mark.parametrize("points", [2, 3, 5, 7])
def test_error_support_is_symmetric_and_spans_zero(points):
    values = rng.normal(3.0, 2.5, size=50)
    row = build_error_support(values, points)
    assert row.size == points
    assert row[0] < 0.0 < row[-1]
    np.testing.assert_allclose(row, -row[::-1], atol=1e-12)
    assert np.all(np.diff(row) > 0.0)


def test_error_support_rejects_constant_values():
    with pytest.raises(ValueError, match="zero spread"):
        build_error_support(np.full(10, 4.2))
    # a deviation that overflows is a size problem, not a missing spread, and
    # numpy's overflow warning stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            build_error_support([0.0, 1.0, 1e308])
    assert str(info.value) == (
        "values[2] = 1e+308 is too large to scale an error support to; rescale the values"
    )


def test_error_support_rejects_short_input():
    with pytest.raises(ValueError, match="two values"):
        build_error_support([1.0])
    with pytest.raises(ValueError, match="two points"):
        build_error_support([0.0, 1.0], n_points=1)


# ---------------------------------------------------------------------------
# error_scale policy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", ERROR_SCALES)
def test_policy_matches_the_three_sigma_row_on_its_sample(scale):
    y = rng.normal(3.0, 2.5, size=40)
    sample = y if scale == "full" else y[:12]
    row = _scaled_error_support(y, 12, scale, 5)
    assert np.array_equal(row, build_error_support(sample, 5))


@pytest.mark.parametrize(
    "y, scale",
    [(np.arange(5.0), "batch"), (np.arange(5.0), "cumulative"), (np.array([]), "full")],
)
def test_policy_rejects_an_empty_sample_by_naming_error_scale(y, scale):
    with pytest.raises(ValueError, match="error_scale"):
        _scaled_error_support(y, 0, scale, 3)


def test_policy_gives_one_value_the_fixed_width():
    row = _scaled_error_support(np.array([-2.5, 40.0]), 1, "batch", 3)
    np.testing.assert_array_equal(row, [-7.5, 0.0, 7.5])
    small = _scaled_error_support(np.array([0.25]), 1, "full", 3)
    np.testing.assert_array_equal(small, [-3.0, 0.0, 3.0])


@pytest.mark.parametrize(
    "values",
    [
        np.full(6, 4.2),
        np.array([1e6, np.nextafter(1e6, 2e6), 1e6, 1e6]),
        np.array([0.1 + 0.2, 0.3, 0.3]),
    ],
    ids=["flat", "one-ulp", "inexact-constant"],
)
def test_policy_gives_flat_and_near_flat_samples_the_fixed_width(values):
    half = 3.0 * max(1.0, float(np.max(np.abs(values))))
    for scale in ERROR_SCALES:
        row = _scaled_error_support(values, values.size, scale, 3)
        np.testing.assert_array_equal(row, [-half, 0.0, half])


def test_policy_rejects_an_unknown_scale():
    with pytest.raises(ValueError, match="error_scale must be one of .*'weekly'"):
        _scaled_error_support(np.arange(5.0), 3, "weekly", 3)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_requires_one_more_row_than_regressor():
    with pytest.raises(ValueError, match="n_regressors \\+ 1"):
        SimulationConfig(n=3, n_regressors=3)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"true_beta": (1.0, 2.0)}, "true_beta"),
        ({"eta": 1.5}, "eta"),
        ({"noise_sd": -1.0}, "noise_sd"),
        ({"x_low": 5.0, "x_high": 5.0}, "x_low"),
        ({"collinear_columns": (0, 0)}, "collinear_columns"),
        ({"collinear_columns": (7,)}, "collinear_columns"),
        ({"beta_support": (1.0, 1.0)}, "beta_support"),
        ({"seed": -1}, "seed"),
        ({"n_regressors": 0}, "n_regressors"),
        ({"noise_sd": math.nan}, "noise_sd"),
        ({"noise_sd": math.inf}, "noise_sd"),
        ({"intercept": math.nan}, "intercept"),
        ({"intercept": -math.inf}, "intercept"),
        ({"true_beta": (1.0, math.nan, 3.0)}, "true_beta"),
        ({"true_beta": (math.inf, -2.0, 3.0)}, "true_beta"),
        ({"x_low": -math.inf}, "x_low"),
        ({"x_high": math.inf}, "x_high"),
        ({"beta_support": (-math.inf, 0.0, math.inf)}, "beta_support"),
    ],
)
def test_config_rejects_bad_fields(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        SimulationConfig(n=30, **kwargs)


def test_default_support_is_the_wide_five_point_row():
    assert DEFAULT_BETA_SUPPORT == (-100.0, -50.0, 0.0, 50.0, 100.0)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_round_trip_is_bitwise(tmp_path):
    data = generate_dataset(SimulationConfig(n=35, seed=44, n_regressors=2))
    path = tmp_path / "data.csv"
    save_dataset_csv(path, data.y, data.x)
    y, x = load_dataset_csv(path)
    assert np.array_equal(y, data.y)
    assert np.array_equal(x, data.x)


def test_loader_reports_the_bad_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,x1\n1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_dataset_csv(path)


def test_loader_reports_the_bad_field(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,x1\n1.0,oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset_csv(path)


def test_loader_rejects_non_finite_values(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,x1\n1.0,nan\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-finite"):
        load_dataset_csv(path)


def test_loader_rejects_wrong_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_dataset_csv(path)


def test_loader_rejects_empty_and_headerless_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_dataset_csv(empty)
    bare = tmp_path / "bare.csv"
    bare.write_text("y,x1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        load_dataset_csv(bare)


def test_writer_rejects_mismatched_shapes(tmp_path):
    with pytest.raises(ValueError, match="rows"):
        save_dataset_csv(tmp_path / "bad.csv", np.zeros(3), np.zeros((4, 2)))
