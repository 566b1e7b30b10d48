import math
import os
import subprocess
import sys
from datetime import date, timedelta

import numpy as np
import pytest
from scipy import stats

from stockcast import checks
from stockcast.cli import build_parser, main
from stockcast.config import (
    ALL_MODELS,
    MULTI_STEP_HORIZONS,
    MULTI_STEP_WINDOWS,
    SINGLE_STEP_WINDOWS,
    parse_config,
)
from stockcast.errors import MissingDataFile, ParseError
from stockcast.nn import autodiff as ad
from stockcast.nn.autodiff import Tensor
from stockcast.nn.params import ParamSet
from stockcast.runner import atomic_write


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    """One short smooth series spanning the default cutoff."""
    d = tmp_path_factory.mktemp("tiny")
    rng = np.random.default_rng(11)
    n = 500
    t = np.arange(n)
    vals = 60.0 + 8.0 * np.sin(t / 9.0) + 0.01 * t + 0.2 * rng.standard_normal(n)
    rows = ["date,close"]
    for i, v in enumerate(vals):
        day = date(2016, 1, 1) + timedelta(days=i)
        rows.append(f"{day.isoformat()},{float(v)!r}")
    write_lines(d / "AAA.csv", rows)
    return str(d)


def make_config(tmp_path, tiny_dir, out_name="results", **overrides):
    fields = {
        "data_dir": tiny_dir,
        "stocks": "AAA",
        "mode": "single",
        "windows": "3",
        "models": "MLP",
        "epochs": "4",
        "batch_size": "16",
        "n_runs": "2",
        "seed": "3",
        "output_dir": str(tmp_path / out_name),
    }
    fields.update(overrides)
    lines = ["# test config"] + [f"{k} = {v}" for k, v in fields.items()]
    return write_lines(tmp_path / "exp.cfg", lines)


# ---------------------------------------------------------------- config


def test_parse_defaults_single(tmp_path, tiny_dir):
    path = write_lines(tmp_path / "c.cfg", [f"data_dir = {tiny_dir}", "stocks = AAA"])
    cfg = parse_config(path)
    assert cfg.mode == "single"
    assert cfg.windows == SINGLE_STEP_WINDOWS
    assert cfg.horizons == (1,)
    assert cfg.models == ALL_MODELS
    assert cfg.n_runs == 5
    assert (cfg.train.epochs, cfg.train.batch_size) == (100, 32)
    assert cfg.train.lr == 1e-3
    assert cfg.train.shuffle
    assert cfg.train.origin_stride == 1
    assert cfg.train.scaler_scope == "train"
    assert cfg.cutoff == date(2017, 1, 1)


def test_parse_defaults_multi(tmp_path, tiny_dir):
    path = write_lines(tmp_path / "c.cfg",
                       [f"data_dir = {tiny_dir}", "stocks = AAA", "mode = multi"])
    cfg = parse_config(path)
    assert cfg.windows == MULTI_STEP_WINDOWS
    assert cfg.horizons == MULTI_STEP_HORIZONS
    assert cfg.strategy == "direct"


def test_parse_unknown_field_named(tmp_path, tiny_dir):
    path = write_lines(tmp_path / "c.cfg",
                       [f"data_dir = {tiny_dir}", "stocks = AAA", "learning_rate = 0.1"])
    with pytest.raises(ParseError, match="learning_rate"):
        parse_config(path)


def test_parse_duplicate_field(tmp_path, tiny_dir):
    path = write_lines(tmp_path / "c.cfg",
                       [f"data_dir = {tiny_dir}", "stocks = AAA", "stocks = AAA"])
    with pytest.raises(ParseError, match="duplicate"):
        parse_config(path)


def test_parse_single_mode_rejects_long_horizon(tmp_path, tiny_dir):
    path = write_lines(tmp_path / "c.cfg",
                       [f"data_dir = {tiny_dir}", "stocks = AAA", "horizons = 7"])
    with pytest.raises(ParseError, match="horizon"):
        parse_config(path)


def test_parse_missing_stock_file(tmp_path, tiny_dir):
    path = write_lines(tmp_path / "c.cfg", [f"data_dir = {tiny_dir}", "stocks = BBB"])
    with pytest.raises(MissingDataFile, match="BBB"):
        parse_config(path)


def test_parse_bad_line(tmp_path):
    path = write_lines(tmp_path / "c.cfg", ["stocks AAA"])
    with pytest.raises(ParseError, match="line 1"):
        parse_config(path)


# ---------------------------------------------------------------- run


def test_run_smoke_outputs(tmp_path, tiny_dir):
    cfg_path = make_config(tmp_path, tiny_dir)
    assert main(["run", "--config", cfg_path, "--jobs", "1"]) == 0
    out = tmp_path / "results"
    for name in ("results.csv", "run_errors.csv", "traces.json"):
        assert (out / name).is_file()
    assert not list(out.glob("*.tmp"))

    lines = (out / "results.csv").read_text().splitlines()
    header_lines = [l for l in lines if l.startswith("#")]
    data_lines = [l for l in lines if not l.startswith("#")]
    assert any("seed = 3" in l for l in header_lines)
    assert data_lines[0] == "stock,model,w,h,strategy,mean_mse,std_mse,n_runs,failed_runs"
    assert len(data_lines) == 2
    stock, model, w, h, strat, mean, std, n, failed = data_lines[1].split(",")
    assert (stock, model, w, h, strat) == ("AAA", "MLP", "3", "1", "direct")
    assert float(mean) >= 0 and float(std) >= 0
    assert (n, failed) == ("2", "0")

    err_lines = [l for l in (out / "run_errors.csv").read_text().splitlines()
                 if not l.startswith("#")]
    assert err_lines[0] == "stock,model,w,h,seed,origin,step,abs_error_norm"
    seeds = {row.split(",")[4] for row in err_lines[1:]}
    assert seeds == {"3", "4"}
    assert len(err_lines) > 1


def test_run_byte_identical_rerun(tmp_path, tiny_dir):
    cfg_path = make_config(tmp_path, tiny_dir)
    assert main(["run", "--config", cfg_path, "--jobs", "1"]) == 0
    out = tmp_path / "results"
    first = {name: (out / name).read_bytes()
             for name in ("results.csv", "run_errors.csv", "traces.json")}
    assert main(["run", "--config", cfg_path, "--jobs", "1"]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_run_seed_override(tmp_path, tiny_dir):
    cfg_path = make_config(tmp_path, tiny_dir)
    assert main(["run", "--config", cfg_path, "--jobs", "1", "--seed", "9"]) == 0
    err_lines = [l for l in (tmp_path / "results" / "run_errors.csv").read_text().splitlines()
                 if not l.startswith("#") and "," in l][1:]
    assert {row.split(",")[4] for row in err_lines} == {"9", "10"}


@pytest.mark.parametrize("affinity, cpu_count, expect", [
    ({0}, 64, 1),        # pinned to one of 64 CPUs
    ({1, 3, 5}, 8, 3),
    (None, 6, 6),        # no sched_getaffinity on this OS
    (None, None, 1),     # and no CPU count either
])
def test_jobs_default_follows_cpu_affinity(monkeypatch, affinity, cpu_count, expect):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert build_parser().parse_args(["run", "--config", "x.cfg"]).jobs == expect


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_rejects_jobs_below_one(tmp_path, tiny_dir, capsys, jobs):
    cfg_path = make_config(tmp_path, tiny_dir)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg_path, "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_run_missing_file_no_partial_output(tmp_path, tiny_dir, capsys):
    cfg_path = make_config(tmp_path, tiny_dir, out_name="never", stocks="AAA,ZZZ")
    assert main(["run", "--config", cfg_path]) == 2
    assert "ZZZ" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_run_iterative_strategy(tmp_path, tiny_dir):
    cfg_path = make_config(tmp_path, tiny_dir, mode="multi", windows="5",
                           horizons="3", strategy="iterative", epochs="3")
    assert main(["run", "--config", cfg_path, "--jobs", "1"]) == 0
    err_lines = [l for l in (tmp_path / "results" / "run_errors.csv").read_text().splitlines()
                 if not l.startswith("#")][1:]
    steps = {row.split(",")[6] for row in err_lines}
    assert steps == {"1", "2", "3"}


def test_atomic_write_ignores_stale_tmp_path(tmp_path):
    # a leftover directory at the old fixed temp name must not block writes
    target = tmp_path / "results.csv"
    (tmp_path / "results.csv.tmp").mkdir()
    atomic_write(str(target), "a,b\n")
    assert target.read_text() == "a,b\n"
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv", "results.csv.tmp"]


def test_atomic_write_syncs_before_replace(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append("fsync"))
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda a, b: (calls.append("replace"),
                                                     real_replace(a, b)))
    atomic_write(str(tmp_path / "out.csv"), "x\n")
    assert calls == ["fsync", "replace"]


def test_atomic_write_removes_tmp_on_failure(tmp_path, monkeypatch):
    def fail(a, b):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        atomic_write(str(tmp_path / "out.csv"), "x\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- dm


def synthetic_run_errors(path, h=1, n_origins=30, seeds=(0, 1)):
    rng = np.random.default_rng(5)
    lines = ["stock,model,w,h,seed,origin,step,abs_error_norm"]
    for model in ALL_MODELS:
        scale = {"MLP": 0.01, "CNN": 0.02, "GRU": 0.015, "LSTM": 0.03}[model]
        for seed in seeds:
            for origin in range(n_origins):
                for step in range(1, h + 1):
                    err = abs(float(rng.normal(scale, scale / 4)))
                    lines.append(f"AAA,{model},3,{h},{seed},{origin},{step},{err!r}")
    return write_lines(path, lines)


def test_dm_command_single(tmp_path, capsys):
    errors = synthetic_run_errors(tmp_path / "run_errors.csv")
    out = tmp_path / "dm.csv"
    assert main(["dm", "--errors", errors, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert any("alpha = 0.0001" in l for l in lines if l.startswith("#"))
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "stock,pair,statistic,p_value,h,T,variant"
    pairs = [row.split(",")[1] for row in data[1:]]
    assert pairs == ["MLP-CNN", "LSTM-GRU", "MLP-LSTM", "LSTM-CNN", "CNN-GRU"]
    for row in data[1:]:
        _, _, stat, p, h, t, variant = row.split(",")
        assert np.isfinite(float(stat))
        assert 0.0 <= float(p) <= 1.0
        assert (h, t, variant) == ("1", "30", "harvey")


def test_dm_command_multi_pairs(tmp_path):
    errors = synthetic_run_errors(tmp_path / "run_errors.csv", h=7)
    out = tmp_path / "dm.csv"
    assert main(["dm", "--errors", errors, "--output", str(out), "--mode", "multi"]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    pairs = [row.split(",")[1] for row in data[1:]]
    assert pairs == ["MLP-CNN", "LSTM-GRU", "MLP-LSTM", "LSTM-CNN", "MLP-GRU"]
    assert all(row.split(",")[4] == "7" for row in data[1:])


def test_dm_command_no_harvey_variant(tmp_path):
    errors = synthetic_run_errors(tmp_path / "run_errors.csv")
    out = tmp_path / "dm.csv"
    assert main(["dm", "--errors", errors, "--output", str(out), "--no-harvey"]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert all(row.split(",")[6] == "plain" for row in data[1:])


def test_dm_command_empty_input(tmp_path, capsys):
    errors = write_lines(tmp_path / "run_errors.csv",
                         ["stock,model,w,h,seed,origin,step,abs_error_norm"])
    assert main(["dm", "--errors", errors, "--output", str(tmp_path / "dm.csv")]) == 2
    assert "no data rows" in capsys.readouterr().err
    assert not (tmp_path / "dm.csv").exists()


def test_dm_command_wrong_header(tmp_path, capsys):
    errors = write_lines(tmp_path / "run_errors.csv", ["a,b,c", "1,2,3"])
    assert main(["dm", "--errors", errors, "--output", str(tmp_path / "dm.csv")]) == 2
    assert "expected columns" in capsys.readouterr().err


def test_dm_command_misaligned_origins(tmp_path, capsys):
    # MLP forecasts origins 35..94, the other models 30..89
    rows = ["stock,model,w,h,seed,origin,step,abs_error_norm"]
    for model in ALL_MODELS:
        start = 35 if model == "MLP" else 30
        for seed in (0, 1):
            rows += [f"AAA,{model},3,1,{seed},{origin},1,0.0{seed + 1}"
                     for origin in range(start, start + 60)]
    errors = write_lines(tmp_path / "run_errors.csv", rows)
    assert main(["dm", "--errors", errors, "--output", str(tmp_path / "dm.csv")]) == 2
    err = capsys.readouterr().err
    assert "AAA" in err and "MLP" in err
    assert not (tmp_path / "dm.csv").exists()


def test_dm_command_missing_model(tmp_path, capsys):
    rows = ["stock,model,w,h,seed,origin,step,abs_error_norm"]
    for origin in range(10):
        rows.append(f"AAA,MLP,3,1,0,{origin},1,0.01")
    errors = write_lines(tmp_path / "run_errors.csv", rows)
    assert main(["dm", "--errors", errors, "--output", str(tmp_path / "dm.csv")]) == 2
    assert "missing error series" in capsys.readouterr().err


def reference_dm_absolute(errors_path, a, b, h):
    """Harvey DM statistic and p-value of pair a-b under absolute loss,
    written out from the formula with plain loops over the CSV rows."""
    cells = {}
    with open(errors_path, encoding="utf-8") as f:
        for line in f.read().splitlines()[1:]:
            _, model, _, _, _, origin, step, err = line.split(",")
            cells.setdefault(model, {}).setdefault((int(origin), int(step)), []).append(
                float(err))
    mean = {m: [sum(v) / len(v) for _, v in sorted(c.items())] for m, c in cells.items()}
    T = len(mean[a])
    d = [abs(mean[a][t]) - abs(mean[b][t]) for t in range(T)]
    d_bar = sum(d) / T
    gammas = [sum((d[t] - d_bar) * (d[t - k] - d_bar) for t in range(k, T)) / T
              for k in range(h)]
    v = gammas[0] + 2.0 * sum(gammas[1:])
    dm = d_bar / math.sqrt(v / T) * math.sqrt((T + 1 - 2 * h + h * (h - 1) / T) / T)
    return dm, 2.0 * stats.t.sf(abs(dm), df=T - 1), T


def test_dm_command_absolute_loss_matches_formula(tmp_path):
    errors = synthetic_run_errors(tmp_path / "run_errors.csv", h=7)
    out = tmp_path / "dm.csv"
    assert main(["dm", "--errors", errors, "--output", str(out), "--mode", "multi",
                 "--loss", "absolute"]) == 0
    text = out.read_text()
    assert "# loss = absolute" in text.splitlines()
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 5
    for _, pair, stat, p, h, t, variant in rows:
        want_stat, want_p, want_t = reference_dm_absolute(errors, *pair.split("-"), 7)
        assert float(stat) == pytest.approx(want_stat, rel=1e-9)
        assert float(p) == pytest.approx(want_p, rel=1e-6, abs=1e-12)
        assert (h, int(t), variant) == ("7", want_t, "harvey")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_dm_command_rejects_non_finite_error(tmp_path, capsys, value):
    errors = synthetic_run_errors(tmp_path / "run_errors.csv")
    lines = (tmp_path / "run_errors.csv").read_text().splitlines()
    lines[40] = lines[40].rsplit(",", 1)[0] + "," + value
    write_lines(errors, lines)
    assert main(["dm", "--errors", errors, "--output", str(tmp_path / "dm.csv")]) == 2
    err = capsys.readouterr().err
    assert "line 41" in err and "non-finite" in err
    assert not (tmp_path / "dm.csv").exists()


def test_dm_command_rejects_too_short_series(tmp_path, capsys):
    # 3 aligned errors per model at h = 1; the DM test needs more than 4
    errors = synthetic_run_errors(tmp_path / "run_errors.csv", n_origins=3)
    assert main(["dm", "--errors", errors, "--output", str(tmp_path / "dm.csv")]) == 2
    err = capsys.readouterr().err
    assert "stock AAA" in err and "T = 3" in err
    assert not (tmp_path / "dm.csv").exists()


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    for name in ("dense", "conv1d", "maxpool", "gru_cell", "lstm_cell", "mse",
                 "arch_MLP", "arch_CNN", "arch_GRU", "arch_LSTM"):
        assert name in out
    assert "FAIL" not in out


def test_gradcheck_command_detects_wrong_gradient(monkeypatch, capsys):
    # a value term invisible to the tape: finite differences see it,
    # the analytic gradient does not
    def bad_check(seed):
        def make(attempt):
            rng = np.random.default_rng((seed, attempt))
            params = ParamSet({"w": Tensor(rng.standard_normal(3))})

            def f(p):
                return ad.tsum(p["w"] ** 2) + Tensor(np.float64(p["w"].data[0]))

            return f, params

        return make

    monkeypatch.setattr(checks, "_check_dense", bad_check)
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "dense" in out and "FAIL" in out


# ---------------------------------------------------------------- validate-data


def test_validate_data_clean_dir(tiny_dir, capsys):
    assert main(["validate-data", "--data-dir", tiny_dir]) == 0
    out = capsys.readouterr().out
    assert out.startswith("AAA: ok, 500 points")


def test_validate_data_bad_file(tmp_path, capsys):
    write_lines(tmp_path / "DUP.csv",
                ["date,close", "2016-01-01,10.0", "2016-01-01,11.0"])
    assert main(["validate-data", "--data-dir", str(tmp_path)]) == 1
    assert "DUP: ERROR" in capsys.readouterr().out


def test_validate_data_reports_dropped_rows(tmp_path, capsys):
    write_lines(tmp_path / "MIX.csv",
                ["date,close", "2016-01-01,10.0", "not-a-date,11.0",
                 "2016-01-03,12.0", "2016-01-04,-1.0", "2016-01-05,13.0"])
    assert main(["validate-data", "--data-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "MIX: ok, 3 points" in out
    assert "dropped 2 row(s)" in out


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; a fresh interpreter shows what the CLI really imports
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, stockcast.cli; "
            "assert stockcast.cli.__file__.startswith(sys.argv[1]), stockcast.cli.__file__; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
