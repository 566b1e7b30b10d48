import math

import numpy as np
import pytest
from scipy import stats

from stockcast.dm_pipeline import dm_csv_text
from stockcast.errors import DegenerateDifferential, TooFewRuns
from stockcast.evaluation import (
    DM_PAIRS,
    _two_sided_normal_p,
    _two_sided_t_p,
    dm_test,
    pairwise_dm_matrix,
)
from stockcast.experiment import CellResult, RunResult


def reference_dm(errors_a, errors_b, h):
    """Independent direct-formula reference, written with plain loops."""
    T = len(errors_a)
    d = [errors_a[t] ** 2 - errors_b[t] ** 2 for t in range(T)]
    d_bar = sum(d) / T
    gammas = []
    for k in range(h):
        acc = 0.0
        for t in range(k, T):
            acc += (d[t] - d_bar) * (d[t - k] - d_bar)
        gammas.append(acc / T)
    v = gammas[0] + 2.0 * sum(gammas[1:])
    dm = d_bar / math.sqrt(v / T)
    dm *= math.sqrt((T + 1 - 2 * h + h * (h - 1) / T) / T)
    p = 2.0 * (1.0 - stats.t.cdf(abs(dm), df=T - 1))
    return dm, p


def test_dm_fixed_sin_instance():
    t = np.arange(1, 51)
    e_a = 0.1 * np.sin(t)
    e_b = 0.1 * np.sin(t) + 0.05
    report = dm_test(e_a, e_b, h=1)
    ref_stat, ref_p = reference_dm(list(e_a), list(e_b), 1)
    assert report.statistic == pytest.approx(ref_stat, abs=1e-9)
    assert report.p_value == pytest.approx(ref_p, abs=1e-9)
    # a is uniformly closer to zero error, so the statistic favors a
    assert report.statistic < 0


def test_dm_oracle_randomized():
    rng = np.random.default_rng(20)
    for _ in range(25):
        T = int(rng.integers(20, 201))
        h = int(rng.choice([1, 7, 14]))
        e_a = rng.standard_normal(T)
        e_b = rng.standard_normal(T) + rng.uniform(-0.5, 0.5)
        try:
            want = reference_dm(list(e_a), list(e_b), h)
        except ValueError:
            continue  # negative long-run variance; fallback path tested elsewhere
        report = dm_test(e_a, e_b, h=h)
        assert report.statistic == pytest.approx(want[0], abs=1e-9)
        assert report.p_value == pytest.approx(want[1], abs=1e-9)


# |t| from 0 to 1e3, denser around the incomplete-beta symmetry switch at |t| ~ sqrt(3)
TAIL_T = np.concatenate([[0.0, 1e-300, 1e-12, 1.70, 1.72, 1.73, 1.74, 1.76],
                         np.geomspace(1e-6, 1e3, 91), np.linspace(0.0, 6.0, 61)])


@pytest.mark.parametrize("df", [3, 4, 5, 7, 10, 29, 30, 100, 495, 3471, 10**4, 10**5,
                                10**6, 10**7])
def test_t_tail_matches_scipy(df):
    tol = 1e-9 if df <= 10**5 else 1e-7
    assert _two_sided_t_p(0.0, df) == 1.0
    for t in TAIL_T:
        want = 2.0 * float(stats.t.sf(t, df))
        if want < 1e-300:
            continue
        for signed in (t, -t):
            assert _two_sided_t_p(float(signed), df) == pytest.approx(want, rel=tol, abs=0.0)


def test_normal_tail_matches_scipy():
    assert _two_sided_normal_p(0.0) == 1.0
    for z in TAIL_T:
        want = 2.0 * float(stats.norm.sf(z))
        if want < 1e-300:
            continue
        for signed in (z, -z):
            assert _two_sided_normal_p(float(signed)) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_tails_propagate_nan():
    assert math.isnan(_two_sided_t_p(math.nan, 10))
    assert math.isnan(_two_sided_normal_p(math.nan))


def test_dm_identical_errors_degenerate():
    e = np.linspace(0.1, 1.0, 30)
    with pytest.raises(DegenerateDifferential):
        dm_test(e, e.copy(), h=1)


def test_dm_antisymmetry():
    rng = np.random.default_rng(21)
    a = rng.standard_normal(60)
    b = rng.standard_normal(60) * 1.3
    fwd = dm_test(a, b, h=3)
    rev = dm_test(b, a, h=3)
    assert fwd.statistic == pytest.approx(-rev.statistic, rel=1e-12)
    assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)


def test_dm_zero_mean_differential():
    d_signs = np.array([1.0, -1.0] * 10)
    e_a = np.sqrt(1.0 + 0.5 * d_signs)
    e_b = np.ones(20)
    report = dm_test(e_a, e_b, h=1)
    assert report.statistic == pytest.approx(0.0, abs=1e-12)
    assert report.p_value == pytest.approx(1.0)


def test_dm_scale_invariance():
    rng = np.random.default_rng(22)
    a = rng.standard_normal(80)
    b = rng.standard_normal(80) + 0.2
    base = dm_test(a, b, h=7)
    for c in (0.01, 3.7, 250.0):
        scaled = dm_test(c * a, c * b, h=7)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9)


def test_dm_p_monotone_in_statistic():
    T = 50
    stats_p = []
    for shift in (0.05, 0.1, 0.2, 0.4):
        rng = np.random.default_rng(23)
        a = 0.1 * rng.standard_normal(T)
        b = 0.1 * rng.standard_normal(T) + shift
        r = dm_test(a, b, h=1)
        stats_p.append((abs(r.statistic), r.p_value))
    stats_p.sort()
    ps = [p for _, p in stats_p]
    assert ps == sorted(ps, reverse=True)


def test_dm_h1_uses_gamma0_only():
    rng = np.random.default_rng(24)
    a = rng.standard_normal(40)
    b = rng.standard_normal(40) + 0.3
    d = a ** 2 - b ** 2
    gamma0 = ((d - d.mean()) ** 2).mean()
    T = 40
    expect = d.mean() / np.sqrt(gamma0 / T) * np.sqrt((T + 1 - 2 + 0) / T)
    assert dm_test(a, b, h=1).statistic == pytest.approx(expect, rel=1e-12)


def test_dm_too_short():
    with pytest.raises(ValueError):
        dm_test(np.ones(4), np.zeros(4), h=1)


def test_dm_sign_convention():
    # a strongly better model a must give a large negative statistic
    # with a tiny p-value
    rng = np.random.default_rng(25)
    e_a = 0.01 * rng.standard_normal(300)
    e_b = 0.2 + 0.01 * rng.standard_normal(300)
    r = dm_test(e_a, e_b, h=1)
    assert r.statistic < -5
    assert r.p_value < 1e-6


def test_loss_interval_single_run():
    # failed runs do not count towards the two runs an interval needs
    no_origins = np.empty((0, 1))
    run = RunResult(0, 0.1, [], np.empty(0, dtype=int), no_origins, no_origins)
    cell = CellResult("A", "MLP", 3, 1, "direct", runs=[run], failed_runs=2)
    with pytest.raises(TooFewRuns):
        cell.interval


def _error_map(seed=26, T=60):
    rng = np.random.default_rng(seed)
    return {m: np.abs(rng.standard_normal(T)) * s
            for m, s in zip(("MLP", "CNN", "GRU", "LSTM"), (0.5, 0.7, 1.0, 0.9))}


def test_pairwise_matrix_single_mode_pairs():
    reports = pairwise_dm_matrix(_error_map(), h=1, mode="single")
    assert [pair for pair, _ in reports] == list(DM_PAIRS["single"])


def test_pairwise_matrix_multi_mode_pairs():
    reports = pairwise_dm_matrix(_error_map(), h=7, mode="multi")
    assert [pair for pair, _ in reports] == list(DM_PAIRS["multi"])


@pytest.mark.parametrize("mode", ["Single", "multi-step", ""])
def test_dm_reports_reject_an_unknown_mode(mode, tmp_path):
    with pytest.raises(ValueError, match="unknown mode"):
        pairwise_dm_matrix(_error_map(), h=1, mode=mode)
    # before the errors file is read
    with pytest.raises(ValueError, match="unknown mode"):
        dm_csv_text(tmp_path / "absent.csv", mode=mode)


def test_pairwise_matrix_all_identical():
    e = np.abs(np.random.default_rng(27).standard_normal(50))
    per_model = {m: e.copy() for m in ("MLP", "CNN", "GRU", "LSTM")}
    reports = pairwise_dm_matrix(per_model, h=1)
    assert all(report is None for _, report in reports)


def test_pairwise_matrix_insertion_order_irrelevant():
    errors = _error_map()
    fwd = pairwise_dm_matrix(dict(errors), h=1)
    rev = pairwise_dm_matrix(dict(reversed(errors.items())), h=1)
    assert fwd == rev
