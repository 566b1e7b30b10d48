import json
import math
import os
import platform
import shutil
import stat
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from stockcast import checks, dm_pipeline, experiment
from stockcast.cli import build_parser, main
from stockcast.config import (
    MULTI_STEP_HORIZONS,
    MULTI_STEP_WINDOWS,
    SINGLE_STEP_WINDOWS,
    parse_config,
)
from stockcast.errors import MissingDataFile, ParseError
from stockcast.models import KINDS
from stockcast.nn.layers import Layer, dense
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
    assert cfg.models == KINDS
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


def test_parse_byte_order_mark_like_plain_file(tmp_path, tiny_dir):
    plain = make_config(tmp_path, tiny_dir)
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
    assert parse_config(bom) == parse_config(plain)


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


@pytest.mark.parametrize("raw", ["20170101", "2017-W01-1"])
def test_parse_cutoff_only_yyyy_mm_dd(tmp_path, tiny_dir, raw):
    # from Python 3.11 on, date.fromisoformat also reads both
    lines = [f"data_dir = {tiny_dir}", "stocks = AAA"]
    assert parse_config(write_lines(tmp_path / "c.cfg", lines + ["cutoff = 2016-06-30"])
                        ).cutoff == date(2016, 6, 30)
    path = write_lines(tmp_path / "c.cfg", lines + [f"cutoff = {raw}"])
    with pytest.raises(ParseError, match=f"field 'cutoff': expected YYYY-MM-DD, got '{raw}'"):
        parse_config(path)


@pytest.mark.parametrize("stocks", [[], ["stocks = ,"]])
def test_parse_requires_stocks(tmp_path, tiny_dir, stocks):
    # an empty stock list would run an empty grid and exit 0
    path = write_lines(tmp_path / "c.cfg", [f"data_dir = {tiny_dir}", *stocks])
    with pytest.raises(ParseError, match="field 'stocks' is required"):
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


def test_run_files_a_diverging_grid_as_failed_cells(tmp_path, data_dir, capsys):
    # the suite turns warnings into errors, so an overflow warning would escape train
    cfg_path = write_lines(tmp_path / "div.cfg", [
        f"data_dir = {data_dir}", "stocks = ACC", "windows = 5", "models = MLP,GRU",
        "n_runs = 2", "epochs = 1", "lr = 1e300", f"output_dir = {tmp_path / 'out'}"])
    assert main(["run", "--config", cfg_path, "--jobs", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"FAILED ACC {model} w=5 h=1: 2 divergent run(s)" for model in ("MLP", "GRU")]
    rows = [line for line in (tmp_path / "out" / "results.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[1:] == [f"ACC,{model},5,1,direct,,,0,2" for model in ("MLP", "GRU")]
    for name in ("run_errors.csv", "traces.json"):
        assert (tmp_path / "out" / name).is_file()


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


@pytest.mark.parametrize("field", ["n_runs", "origin_stride", "epochs", "batch_size"])
def test_run_rejects_count_below_one_before_training(tmp_path, tiny_dir, capsys, monkeypatch,
                                                     field):
    trained = []
    monkeypatch.setattr(experiment, "train", lambda *args: trained.append(args) or [0.0])
    cfg_path = make_config(tmp_path, tiny_dir, **{field: "0"})
    with pytest.raises(ParseError, match=rf"field '{field}': must be >= 1, got 0"):
        parse_config(cfg_path)
    assert main(["run", "--config", cfg_path, "--jobs", "1"]) == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert trained == []
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("field, value, extra", [
    ("lr", "nan", {}),
    ("lr", "inf", {}),
    ("lr", "0", {}),
    ("lr", "-1e-3", {}),
    ("windows", "0", {}),
    ("windows", "-3", {}),
    ("windows", "5,0", {}),   # the w=5 cells must not train first
    ("horizons", "0", {"mode": "multi", "windows": "5"}),
    ("seed", "-1", {}),
    # repeated grid entries would train (or for stocks, silently drop) a cell twice
    ("stocks", "AAA,AAA", {}),
    ("models", "MLP,mlp", {}),
    ("windows", "3,5,3", {}),
    ("horizons", "7,7", {"mode": "multi", "windows": "5"}),
    # an empty model list would train nothing and still write result files
    ("models", "", {}),
    ("models", ",", {}),
    ("windows", "", {}),
    ("horizons", ",", {"mode": "multi", "windows": "5"}),
])
def test_run_rejects_out_of_range_value_before_training(tmp_path, tiny_dir, capsys, monkeypatch,
                                                        field, value, extra):
    trained = []
    monkeypatch.setattr(experiment, "train", lambda *args: trained.append(args) or [0.0])
    cfg_path = make_config(tmp_path, tiny_dir, **extra, **{field: value})
    parts = [p for p in value.upper().split(",") if p]
    rule = f"must not repeat {parts[-1]}$" if len(set(parts)) < len(parts) else "must be "
    with pytest.raises(ParseError, match=rf"field '{field}': {rule}"):
        parse_config(cfg_path)
    assert main(["run", "--config", cfg_path, "--jobs", "1"]) == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert trained == []
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command", ["run", "gradcheck"])
def test_negative_seed_option_rejected(tmp_path, tiny_dir, capsys, command):
    argv = ["run", "--config", make_config(tmp_path, tiny_dir)] if command == "run" else [command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_run_missing_file_no_partial_output(tmp_path, tiny_dir, capsys):
    cfg_path = make_config(tmp_path, tiny_dir, out_name="never", stocks="AAA,ZZZ")
    assert main(["run", "--config", cfg_path]) == 2
    assert "ZZZ" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("output_dir", ["", "{file}/out"], ids=["empty", "under_a_file"])
def test_run_rejects_unusable_output_dir_before_training(tmp_path, tiny_dir, capsys,
                                                         monkeypatch, output_dir):
    trained = []
    monkeypatch.setattr(experiment, "train", lambda *args: trained.append(args) or [0.0])
    (tmp_path / "file").write_text("")
    cfg_path = make_config(tmp_path, tiny_dir,
                           output_dir=output_dir.format(file=tmp_path / "file"))
    assert main(["run", "--config", cfg_path, "--jobs", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert trained == []


@pytest.mark.parametrize("overrides, message", [
    ({"windows": "400"}, "window 400"),
    ({"models": "CNN", "windows": "1"}, "window 1 too small"),
], ids=["window_too_large", "cnn_window_too_small"])
def test_run_rejects_impossible_window_before_creating_output_dir(
        tmp_path, tiny_dir, capsys, monkeypatch, overrides, message):
    trained = []
    monkeypatch.setattr(experiment, "train", lambda *args: trained.append(args) or [0.0])
    cfg_path = make_config(tmp_path, tiny_dir, **overrides)
    assert main(["run", "--config", cfg_path, "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert trained == []
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("output", ["{tmp}/missing/dm.csv", "{tmp}/file/dm.csv"],
                         ids=["missing_dir", "under_a_file"])
def test_dm_rejects_unusable_output_dir_before_reading(tmp_path, capsys, monkeypatch, output):
    calls = []
    monkeypatch.setattr(dm_pipeline, "dm_csv_text",
                        lambda *args, **kwargs: calls.append(args) or "")
    (tmp_path / "file").write_text("")
    errors = synthetic_run_errors(tmp_path / "run_errors.csv")
    output = output.format(tmp=tmp_path)
    assert main(["dm", "--errors", errors, "--output", output]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and output in err
    assert ".tmp" not in err.replace(str(tmp_path), "")
    assert calls == []


@pytest.mark.parametrize("output,named", [("{tmp}", "{tmp}"), ("", "''")],
                         ids=["a_directory", "empty"])
def test_dm_rejects_output_naming_no_file_before_reading(tmp_path, capsys, monkeypatch,
                                                        output, named):
    calls = []
    monkeypatch.setattr(dm_pipeline, "dm_csv_text",
                        lambda *args, **kwargs: calls.append(args) or "")
    errors = synthetic_run_errors(tmp_path / "run_errors.csv")
    output, named = output.format(tmp=tmp_path), named.format(tmp=tmp_path)
    assert main(["dm", "--errors", errors, "--output", output]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --output {named} ")
    assert ".tmp" not in err.replace(str(tmp_path), "")
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["dm", "--errors", "{dir}", "--output", "{dir}/dm.csv"],
    ["run", "--config", "{dir}"],
    ["validate-data", "--data-dir", "{file}"],
], ids=["dm", "run", "validate-data"])
def test_unreadable_input_path_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    assert main([a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_all_traces_keeps_every_seed(tmp_path, tiny_dir):
    records = {}
    for flags in ([], ["--all-traces"]):
        out = f"out{len(flags)}"
        cfg_path = make_config(tmp_path, tiny_dir, out_name=out, windows="3,5", n_runs="3")
        assert main(["run", "--config", cfg_path, "--jobs", "1", *flags]) == 0
        records[bool(flags)] = json.loads((tmp_path / out / "traces.json").read_text())["records"]
    every, best = records[True], records[False]
    assert [(r["w"], r["seed"]) for r in every] == [(3, 3), (3, 4), (3, 5),
                                                    (5, 3), (5, 4), (5, 5)]
    for w in (3, 5):
        runs = [r for r in every if r["w"] == w]
        assert [r for r in best if r["w"] == w] == [min(runs, key=lambda r: r["test_mse"])]


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
    atomic_write(str(target), ["a,b\n"])
    assert target.read_text() == "a,b\n"
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv", "results.csv.tmp"]


def record_syncs(monkeypatch, directory):
    """The os.fsync and os.replace calls in order: "replace", and
    ("fsync", "target dir") for an fd of `directory`, ("fsync", "dir") for
    another directory's and ("fsync", "file") for a file's."""
    calls = []
    real_replace = os.replace

    def fsync(fd):
        st = os.fstat(fd)
        kind = "dir" if stat.S_ISDIR(st.st_mode) else "file"
        calls.append(("fsync", "target dir" if os.path.samestat(st, os.stat(directory))
                      else kind))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", lambda a, b: (calls.append("replace"),
                                                     real_replace(a, b)))
    return calls


def test_atomic_write_syncs_before_replace(tmp_path, monkeypatch):
    # on POSIX the directory is synced after the rename, or a crash right
    # after it can lose the rename
    calls = record_syncs(monkeypatch, tmp_path)
    atomic_write(str(tmp_path / "out.csv"), ["x\n"])
    assert calls == [("fsync", "file"), "replace"] + [("fsync", "target dir")] * (
        os.name == "posix")


@pytest.mark.skipif(os.name != "posix", reason="directories are synced on POSIX only")
def test_atomic_write_syncs_the_working_directory_for_a_bare_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = record_syncs(monkeypatch, tmp_path)
    atomic_write("out.csv", ["x\n"])
    assert calls == [("fsync", "file"), "replace", ("fsync", "target dir")]
    assert (tmp_path / "out.csv").read_text() == "x\n"


def test_atomic_write_removes_tmp_on_failure(tmp_path, monkeypatch):
    def fail(a, b):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        atomic_write(str(tmp_path / "out.csv"), ["x\n"])
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- dm


def synthetic_run_errors(path, h=1, n_origins=30, seeds=(0, 1)):
    rng = np.random.default_rng(5)
    lines = ["stock,model,w,h,seed,origin,step,abs_error_norm"]
    for model in KINDS:
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
    assert [l for l in lines if l.startswith("#")] == [
        "# stockcast DM comparison", "# mode = single", "# loss = squared",
        "# variant = harvey", "# h = 1"]
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "stock,pair,statistic,p_value,h,T,variant"
    pairs = [row.split(",")[1] for row in data[1:]]
    assert pairs == ["MLP-CNN", "LSTM-GRU", "MLP-LSTM", "LSTM-CNN", "CNN-GRU"]
    for row in data[1:]:
        _, _, stat, p, h, t, variant = row.split(",")
        assert np.isfinite(float(stat))
        assert 0.0 <= float(p) <= 1.0
        assert (h, t, variant) == ("1", "30", "harvey")


def test_dm_command_byte_order_mark_like_plain_file(tmp_path):
    # run_errors.csv opens with its "# stockcast results" comment block
    plain = tmp_path / "plain.csv"
    synthetic_run_errors(plain)
    plain.write_text("# stockcast results\n" + plain.read_text())
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for name in ("plain", "bom"):
        assert main(["dm", "--errors", str(tmp_path / f"{name}.csv"),
                     "--output", str(tmp_path / f"dm_{name}.csv")]) == 0
    assert (tmp_path / "dm_bom.csv").read_bytes() == (tmp_path / "dm_plain.csv").read_bytes()


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
    for model in KINDS:
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
    # the dense row's points through a dense layer whose backward halves
    # b's gradient: finite differences see it
    def backward(cache, g, W, b):
        dx, (dW, db) = dense.backward(cache, g, W, b)
        return dx, (dW, 0.5 * db)

    make_dense = checks.CHECKS[0][1]

    def bad_make(seed, attempt):
        _, params, x, target = make_dense(seed, attempt)
        return [(Layer(dense.forward, backward), ("W", "b"))], params, x, target

    monkeypatch.setattr(checks, "CHECKS",
                        (("dense", bad_make, checks.LINEAR_TOL), *checks.CHECKS[1:]))
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
    assert "  row 2: unparsable date\n" in out
    assert "  row 4: non-positive or non-numeric close\n" in out


def test_validate_data_lists_a_directory_named_csv_as_an_error(tmp_path, tiny_dir, capsys):
    (tmp_path / "X.csv").mkdir()
    shutil.copy(os.path.join(tiny_dir, "AAA.csv"), tmp_path / "Y.csv")
    assert main(["validate-data", "--data-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("X: ERROR")
    assert out[1].startswith("Y: ok, 500 points")


def test_validate_data_config_lists_the_configured_stocks_in_order(tmp_path, tiny_dir, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("AAA", "BBB", "CCC"):
        shutil.copy(os.path.join(tiny_dir, "AAA.csv"), data / f"{name}.csv")
    cfg_path = make_config(tmp_path, str(data), stocks="CCC,AAA")
    assert main(["validate-data", "--config", cfg_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{name}: ok, 500 points 2016-01-01..2017-05-14" for name in ("CCC", "AAA")]


def test_validate_data_config_applies_the_grid_rules(tmp_path, tiny_dir, capsys):
    assert main(["validate-data", "--config", make_config(tmp_path, tiny_dir,
                                                          windows="5,5")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field 'windows': must not repeat 5\n"


def test_readme_config_block_parses(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "readme.cfg").write_text(block, encoding="utf-8")
    monkeypatch.chdir(root)  # the block's data_dir is ./data
    cfg = parse_config(tmp_path / "readme.cfg")
    assert (cfg.stocks, cfg.mode, cfg.windows, cfg.horizons) == (("ACC", "HDFC"), "single",
                                                                 (3, 5, 7), (1,))


def after_run_imports(code):
    """The output of `code` in a fresh interpreter that has imported what a
    `run` process imports before its first call."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, stockcast.cli, stockcast.config; "
            "assert stockcast.cli.__file__.startswith(sys.argv[1]), stockcast.cli.__file__; "
            + code)
    out = subprocess.run([sys.executable, "-c", code, src], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


# scipy is a test-only oracle; the gradient-check suite, the DM reader and its
# statistics load only when `gradcheck` or `dm` runs
@pytest.mark.parametrize("module", ["scipy", "stockcast.checks", "stockcast.dm_pipeline",
                                    "stockcast.evaluation"])
def test_run_imports_load_no_unused_module(module):
    assert after_run_imports(f"print({module!r} in sys.modules)") == "False"


def test_package_dm_names_load_on_first_use():
    code = ("from stockcast import DmReport, dm_test, pairwise_dm_matrix; "
            "import stockcast.evaluation as ev; "
            "print(DmReport is ev.DmReport, dm_test is ev.dm_test, "
            "pairwise_dm_matrix is ev.pairwise_dm_matrix)")
    assert after_run_imports(code) == "True True True"


BLAS_THREADS = """
import os
import stockcast
import numpy as np
from concurrent.futures import ProcessPoolExecutor

def threads():
    a = np.ones((512, 512))
    a @ a
    return len(os.listdir("/proc/self/task"))

if __name__ == "__main__":
    here = threads()
    with ProcessPoolExecutor(1) as pool:
        print(here, pool.submit(threads).result())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2 or not os.path.isdir("/proc/self/task"),
                    reason="needs 2+ CPUs (one CPU gets one BLAS thread anyway) and Linux /proc")
def test_one_blas_thread_per_process():
    # in an environment that sets no thread count, the process and a pool worker each run
    # one thread after a matmul: no BLAS pool to oversubscribe the CPUs with
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", BLAS_THREADS], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "1"]


NUMPY_FIRST = """
import ctypes, glob, os
import numpy
import stockcast
libs = [ctypes.CDLL(path) for path in glob.glob(os.path.join(
    os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))]
names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")
print(*[getattr(lib, name)() for lib in libs for name in names if hasattr(lib, name)]
      or ["no bundled OpenBLAS"])
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU gets one BLAS thread anyway")
def test_one_blas_thread_when_numpy_is_imported_first():
    # numpy's OpenBLAS has read the (unset) thread counts before stockcast sets them
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", NUMPY_FIRST], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    if out.stdout.strip() == "no bundled OpenBLAS":
        pytest.skip("numpy has no bundled OpenBLAS")
    assert out.stdout.strip() == "1"


HEAP_FAULTS = """
import multiprocessing
import resource
import stockcast
import numpy as np
from concurrent.futures import ProcessPoolExecutor

def faults():
    def rounds(n):
        for _ in range(n):
            arrays = [np.ones(3 << 17) for _ in range(8)]  # 8 x 3 MiB
            del arrays
    rounds(2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rounds(5)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

if __name__ == "__main__":
    here = faults()
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        print(here, pool.submit(faults).result())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc only")
def test_freed_memory_stays_in_the_heap():
    # after a warm-up, allocating and freeing the same multi-MB arrays faults in no
    # fresh pages, in the process and in a forked pool worker; glibc's default
    # thresholds unmap or trim them on every free, one fault per 4 KiB page (~30,000)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", HEAP_FAULTS], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    here, worker = map(int, out.stdout.split())
    assert here < 1000 and worker < 1000, out.stdout
