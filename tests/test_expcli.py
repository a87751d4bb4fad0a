"""The rate experiment through the command line entry point."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from rosenlab import expcli, fieldsim, rosenblatt
from rosenlab.errors import ParameterError
from rosenlab.expcli import ExperimentConfig, config_to_json, main
from rosenlab.rosenblatt import EigenSeries, series_cdf, series_from_json, series_to_json

MODEL = json.dumps({"family": "cauchy", "d": 1, "theta": 0.2})
WINDOW = json.dumps({"shape": "ball", "R": 1.0, "d": 1})


def _experiment(out, *flags):
    return [
        "rate", "experiment",
        "--model", MODEL,
        "--set", WINDOW,
        "--functional", "abs-centered",
        "--h", "0.5",
        "--seed", "7",
        "--out", str(out),
        *flags,
    ]


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("replicates", [1000, 1001])
def test_table_is_identical_for_any_worker_count(tmp_path, monkeypatch, replicates):
    calls = []
    scalar = expcli.normalized_statistic

    def counted(kr, c2, r, params):
        calls.append(r)
        return scalar(kr, c2, r, params)

    monkeypatch.setattr(expcli, "normalized_statistic", counted)
    flags = ("--r", "4,8", "--replicates", str(replicates))
    assert main(_experiment(tmp_path / "default.csv", *flags)) == 0
    # every X_r goes through the scalar normalization, one call per replicate
    assert len(calls) == 2 * replicates
    pairs = (replicates + 1) // 2
    # the default block holds every pair of the 128-site torus; one pair per
    # block gives each pair its own stream and the pool blocks to share
    default_sites = fieldsim._BLOCK_SITES
    for block_sites, streams in ((default_sites, 1), (1, pairs)):
        monkeypatch.setattr(fieldsim, "_BLOCK_SITES", block_sites)
        tables = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(fieldsim, "_available_cores", lambda: workers)
            out = tmp_path / f"{block_sites}-{workers}.csv"
            assert main(_experiment(out, *flags)) == 0
            tables.append(out.read_bytes())
            manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text(encoding="utf-8"))
            draws = manifest["config"]["derived_stage_seconds"]["draws"]
            assert (draws["streams"], draws["workers"]) == (streams, min(workers, streams))
        assert tables == [tables[0]] * 3
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / f"{default_sites}-1.csv").read_bytes()
    rows = _rows(tmp_path / "default.csv")
    assert [float(row["r"]) for row in rows] == [4.0, 8.0]
    assert all(int(row["replicates"]) == replicates for row in rows)
    assert all(0.0 < float(row["rho"]) < 1.0 for row in rows)


def test_bootstrap_stderr_matches_the_resample_loop():
    # oracle: sort each row's resample and evaluate the distance to the
    # normal CDF at its own breakpoints; the rows order the replicates
    # differently, and the second one has ties
    rng = np.random.default_rng(11)
    for n in (1000, 1001):
        rows = [rng.standard_normal(n), np.round(rng.standard_normal(n), 1)]
        boot = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(expcli._BOOTSTRAP_TAG,)))
        stats = [[] for _ in rows]
        grid = np.arange(n, dtype=float)
        for _ in range(expcli._BOOTSTRAP_RESAMPLES):
            pick = boot.integers(0, n, n)
            for row_stats, values in zip(stats, rows):
                fr = ndtr(np.sort(values[pick]))
                row_stats.append(max(np.max(fr - grid / n), np.max((grid + 1.0) / n - fr)))
        orders = [np.argsort(values) for values in rows]
        cdfs = [ndtr(values[order]) for values, order in zip(rows, orders)]
        want = [float(np.std(row_stats, ddof=1)) for row_stats in stats]
        assert expcli._bootstrap_stderrs(cdfs, orders, 5) == want


@pytest.mark.parametrize("n", [1000, 1001])
@pytest.mark.parametrize("batch", [expcli._BOOTSTRAP_BATCH, 7])
def test_batched_bootstrap_equals_one_resample_at_a_time(monkeypatch, n, batch):
    # odd n is where one integers call of k rows would read the stream
    # differently from k calls; 7 leaves a short last batch
    monkeypatch.setattr(expcli, "_BOOTSTRAP_BATCH", batch)
    gen = np.random.default_rng(n)
    cdfs = [np.sort(gen.random(n)) for _ in range(3)]
    orders = [gen.permutation(n) for _ in range(3)]
    rng = fieldsim.replicate_generator(5, expcli._BOOTSTRAP_TAG)
    stats = [[] for _ in cdfs]
    for _ in range(expcli._BOOTSTRAP_RESAMPLES):
        counts = np.bincount(rng.integers(0, n, n), minlength=n)
        for row_stats, f, order in zip(stats, cdfs, orders):
            row_stats.append(float(expcli._ks_from_cdf(f, counts[order])))
    want = [float(np.std(row_stats, ddof=1)) for row_stats in stats]
    assert expcli._bootstrap_stderrs(cdfs, orders, 5) == want


def test_bootstrap_memory_is_a_few_batches_of_resamples():
    # 200 resamples of 10^5 counts would take 160 MB at once, and a table
    # per row more; the batches hold a few 10 x 10^5 arrays (8 MB each)
    n = 10**5
    gen = np.random.default_rng(1)
    cdfs = [np.sort(gen.random(n)) for _ in range(2)]
    orders = [gen.permutation(n) for _ in range(2)]
    tracemalloc.start()
    try:
        expcli._bootstrap_stderrs(cdfs, orders, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * expcli._BOOTSTRAP_BATCH * n * 8


def test_rate_experiment_equals_the_per_field_and_per_resample_loops(monkeypatch):
    # 100 pairs per stream on the 128-site torus of r=8: 501 pairs make six
    # blocks, which two workers share
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", 100 * 128)
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: 2)
    config = ExperimentConfig(
        model=expcli.model_from_json(MODEL),
        window=expcli.set_from_json(WINDOW),
        functional="square",
        r_grid=(2.0, 4.0, 8.0),
        replicates=1001,
        master_seed=3,
        h=0.5,
    )
    table = expcli.rate_experiment(config)
    G = expcli.functional_catalog("square")
    c0, c2 = 1.0, 2.0  # square = h2 + 1
    params = expcli.lrd_params(config.model)
    # every r is read off the lattice of r=8, block k from the stream keyed
    # by the tag and k alone
    top = expcli._experiment_plan(config, 8.0)
    assert fieldsim.embedding(top).torus_side == 128
    lattices = []
    for block in range(6):
        rng = fieldsim.replicate_generator(3, expcli._REPLICATE_TAG, block)
        for _ in range(min(100, 501 - 100 * block)):
            pair = fieldsim.simulate_pairs(top, rng, 1)[0]
            lattices += [fieldsim.GridField(half, top.h, top.origin) for half in (pair.real, pair.imag)]
    for i, r in enumerate(config.r_grid):
        values = []
        for lattice in lattices[:1001]:
            kr = fieldsim.functional_integral(lattice, G, config.window, r)
            kr -= c0 * fieldsim.lattice_window_volume(lattice, config.window, r)
            values.append(fieldsim.normalized_statistic(kr, c2, r, params))
        f = series_cdf(table.law, np.sort(values))
        grid = np.arange(f.size)
        rho = float(max(np.max(f - grid / f.size), np.max((grid + 1) / f.size - f)))
        # every r reads the same resamples of the replicates, one at a time
        # from the one bootstrap stream; a replicate counts at its rank
        rank = np.argsort(np.argsort(values))
        boot = fieldsim.replicate_generator(3, expcli._BOOTSTRAP_TAG)
        stats = []
        for _ in range(expcli._BOOTSTRAP_RESAMPLES):
            counts = np.bincount(rank[boot.integers(0, f.size, f.size)], minlength=f.size)
            upto = np.cumsum(counts)
            stats.append(float(max(np.max(f - (upto - counts) / f.size),
                                   np.max(upto / f.size - f))))
        row = table.rows[i]
        assert (row.rho, row.rho_stderr) == (rho, float(np.std(stats, ddof=1))), r


def test_rho_is_the_sup_over_breakpoints_against_the_series_cdf(tmp_path, monkeypatch):
    seen = []

    def recorded(series, x):
        seen.append((series, np.array(x)))
        return series_cdf(series, x)

    monkeypatch.setattr(expcli, "series_cdf", recorded)
    out = tmp_path / "rho.csv"
    assert main(_experiment(out, "--r", "4,8")) == 0
    rows = _rows(out)
    assert len(seen) == 2
    for (law, x), row in zip(seen, rows):
        assert law is seen[0][0]  # one law per call
        # brute force: the empirical CDF on both sides of every breakpoint
        f = series_cdf(law, x)
        above = np.searchsorted(x, x, side="right") / x.size
        below = np.searchsorted(x, x, side="left") / x.size
        brute = max(np.max(np.abs(above - f)), np.max(np.abs(f - below)))
        assert float(row["rho"]) == brute
    manifest = json.loads((tmp_path / "rho.csv.manifest.json").read_text(encoding="utf-8"))
    recorded_law = manifest["config"]["derived_limit_law"]
    nu = np.asarray(seen[0][0].eigenvalues)
    assert recorded_law["kept"] == nu.size
    assert recorded_law["kappa3"] == 8.0 * float(np.sum(nu**3))
    assert "reference" not in json.dumps(manifest)


def test_reference_draw_count_option_is_gone(tmp_path):
    # the law's CDF is exact, so there is no reference sample to size
    with pytest.raises(SystemExit):
        main(_experiment(tmp_path / "rho.csv", "--r", "4", "--reference-size", "10000"))
    assert [f.name for f in fields(ExperimentConfig)] == [
        "model", "window", "functional", "r_grid", "replicates", "master_seed", "h", "out",
    ]


def test_errors_become_one_line_and_exit_code_2(capsys):
    argv = ["rosenblatt", "build", "--set", WINDOW, "--alpha", "0.5"]  # alpha >= d/2
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("rosenlab: alpha must lie in (0, d/2)")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_flags_override_the_config_document(tmp_path):
    doc = {
        "model": json.loads(MODEL),
        "window": json.loads(WINDOW),
        "functional": "abs-centered",
        "r_grid": [8, 16],
        "replicates": 1000,
        "h": 0.5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "rho.csv"
    assert main(["rate", "experiment", "--config", str(path), "--r", "16", "--out", str(out)]) == 0
    rows = _rows(out)
    assert [float(row["r"]) for row in rows] == [16.0]


def _never_called(*args):
    raise AssertionError("the command ran past its input checks")


@pytest.mark.parametrize("command, doc, unknown", [
    (["rosenblatt", "build"], {"set": json.loads(WINDOW), "alpha": 0.4, "keep": 50, "n-nodes": 512},
     "'keep', 'n-nodes'"),
    # rate experiment reads its windows and scales as window and r_grid
    (["rate", "experiment"], {"model": json.loads(MODEL), "set": json.loads(WINDOW), "r": [8],
                              "functional": "h2"}, "'r', 'set'"),
])
def test_config_keys_the_command_does_not_read_are_refused(
    tmp_path, capsys, monkeypatch, command, doc, unknown
):
    monkeypatch.setattr(expcli, "limit_law", _never_called)
    monkeypatch.setattr(expcli, "model_from_json", _never_called)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rosenlab: config key(s) {unknown} not read by '{' '.join(command)}'")
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_config_document_of_read_keys_is_accepted(tmp_path, monkeypatch):
    series = EigenSeries(eigenvalues=(1.0, 0.5, 0.25), kept=3, tail_mass=0.0, raw_variance=2.625)
    built = []

    def law(window, alpha):
        built.append((window, alpha))
        return series

    monkeypatch.setattr(expcli, "limit_law", law)
    out = tmp_path / "series.json"
    doc = {"set": json.loads(WINDOW), "alpha": 0.4, "master_seed": 3, "out": str(out)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["rosenblatt", "build", "--config", str(path)]) == 0
    assert built == [(expcli.set_from_json(WINDOW), 0.4)]
    assert series_from_json(out.read_text(encoding="utf-8")) == series
    manifest = _manifest(out)
    assert manifest["config"]["config_document"] == doc
    assert manifest["seeds"] == {"master_seed": 3}


@pytest.mark.parametrize("argv", [
    ["rosenblatt", "sample", "--series", "series.json", "--n", "10"],
    ["rate", "experiment", "--model", MODEL, "--set", WINDOW, "--functional", "h2", "--r", "8"],
    ["simulate", "field", "--model", MODEL, "--h", "1.0", "--extent", "8.0"],
], ids=lambda argv: " ".join(argv[:2]))
def test_a_negative_seed_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # numpy refuses it too, but only at the first draw and with a traceback
    for name in ("limit_law", "model_from_json", "series_from_json"):
        monkeypatch.setattr(expcli, name, _never_called)
    out = tmp_path / "out"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "rosenlab: seed must be a nonnegative integer, got -1\n"
    assert not out.exists()


def test_a_negative_master_seed_in_a_config_document_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(expcli, "limit_law", _never_called)
    doc = {"model": json.loads(MODEL), "window": json.loads(WINDOW), "functional": "h2",
           "r_grid": [8], "master_seed": -2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["rate", "experiment", "--config", str(path), "--out", str(tmp_path / "rho")]) == 2
    assert capsys.readouterr().err == "rosenlab: seed must be a nonnegative integer, got -2\n"
    config = {**doc, "model": expcli.model_from_json(MODEL), "window": expcli.set_from_json(WINDOW)}
    with pytest.raises(ParameterError, match="seed must be a nonnegative integer, got -2"):
        ExperimentConfig(**config)


@pytest.mark.parametrize("seed, shown", [("x", "'x'"), (1.5, "1.5"), (True, "True")])
def test_a_config_seed_that_is_not_an_integer_is_refused(tmp_path, capsys, monkeypatch, seed, shown):
    # int() raised a traceback on "x" and truncated 1.5 and true to 1
    monkeypatch.setattr(expcli, "limit_law", _never_called)
    out = tmp_path / "series.json"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"set": json.loads(WINDOW), "alpha": 0.4, "seed": seed}),
                    encoding="utf-8")
    assert main(["rosenblatt", "build", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"rosenlab: seed must be a nonnegative integer, got {shown}\n"
    assert not out.exists()


_EXPERIMENT = ["rate", "experiment", "--model", MODEL, "--set", WINDOW, "--functional", "h2"]


@pytest.mark.parametrize("argv, doc, message", [
    ([*_EXPERIMENT, "--r", "4,x"], None, "--r must be a number, got 'x'"),
    (["covariance", "eval", "--model", MODEL, "--r", "1,abc"], None,
     "--r must be a number, got 'abc'"),
    ([*_EXPERIMENT, "--r", "8"], {"replicates": "x"}, "--replicates must be an integer, got 'x'"),
    (_EXPERIMENT, {"r_grid": "4,abc"}, "--r must be a number, got 'abc'"),
    (["rate", "curves", "--family", "localglobal", "--alpha-grid", "0.1:0.5:x"], None,
     "--alpha-grid must be an integer, got 'x'"),
    (["rate", "curves", "--family", "localglobal", "--alpha-grid", "0.1:0.5"], None,
     "--alpha-grid grid must be start:stop:count, got '0.1:0.5'"),
    (["covariance", "eval", "--model", "nope", "--r", "1"], None,
     "model descriptor must be a JSON object, got 'nope'"),
    (["rate", "experiment", "--model", MODEL, "--set", "notjson", "--functional", "h2",
      "--r", "8"], None, "window descriptor must be a JSON object, got 'notjson'"),
    (["rosenblatt", "build", "--set", "[1,2]", "--alpha", "0.4"], None,
     "window descriptor must be a JSON object, got '[1,2]'"),
    (["rosenblatt", "sample"], {"series": "series.json", "n": 1.5},
     "--n must be an integer, got 1.5"),
    (["rosenblatt", "build", "--set", WINDOW, "--alpha", "0.4"], [1, 2],
     "config document must be a JSON object, got '[1, 2]'"),
    (["rosenblatt", "sample", "--series", "series.json", "--n", "1.5"], None,
     "--n must be an integer, got '1.5'"),
    (["rosenblatt", "build", "--set", WINDOW, "--alpha", "x"], None,
     "--alpha must be a number, got 'x'"),
    ([*_EXPERIMENT, "--r", "8", "--replicates", "2.5"], None,
     "--replicates must be an integer, got '2.5'"),
    (["verify", "supmin", "--d", "1", "--alpha", "0.4", "--q", "0.0999", "--upsilon", "0.6"],
     {"no-refine": "false"}, "--no-refine must be true or false, got 'false'"),
    (["rate", "curves", "--family", "localglobal", "--alpha-grid", "0.1:0.4:-1"], None,
     "--alpha-grid grid count must be at least 1, got -1"),
    (["rate", "curves", "--family", "localglobal", "--alpha-grid", "0.1:0.4:0"], None,
     "--alpha-grid grid count must be at least 1, got 0"),
    (["spectral", "fit-upsilon", "--model", MODEL, "--grid", "0.001:0.01:-2"], None,
     "--grid grid count must be at least 1, got -2"),
    (["rosenblatt", "build", "--set", WINDOW, "--alpha", "0.4"], {"seed": 1, "master_seed": 2},
     "config document names both 'seed' and 'master_seed'; give one"),
    (["rate", "bound", "--model", MODEL, "--d", "2", "--alpha", "0.9", "--upsilon", "5"], None,
     "--model fixes d, alpha and upsilon; drop --d, --alpha, --upsilon"),
    # the unit ball at r = 2^19 + 1/8 lays out 2^21 + 1 cells a side of the
    # origin at h = 0.25, 2^22 + 2 points per axis
    ([*_EXPERIMENT, "--r", "8,524288.125"], None,
     "4194306 lattice points per axis exceeds the 2^22 budget"),
    (["rate", "experiment", "--model", json.dumps({"family": "cauchy", "d": 2, "theta": 0.3}),
      "--set", WINDOW, "--functional", "h2", "--r", "8"], None,
     "model dimension 2 does not match window dimension 1"),
], ids=[
    "r-list", "covariance-r", "config-replicates", "config-r_grid", "grid-count", "grid-parts",
    "model-text", "set-text", "set-array", "config-n-float", "config-array",
    "n-float", "alpha-text", "replicates-float", "config-no-refine-text", "grid-count-negative",
    "grid-count-zero", "fit-grid-count-negative", "config-seed-and-master_seed",
    "bound-exponents-with-model", "r-over-the-lattice-budget", "model-window-dimensions",
])
def test_malformed_values_exit_2_with_one_line_before_any_work(
    tmp_path, capsys, monkeypatch, argv, doc, message
):
    # each raised ValueError, JSONDecodeError or AttributeError with a
    # traceback, or, for "n": 1.5, truncated it and wrote one draw; the
    # flags failed at argparse with a usage line; the no-refine text, the
    # seed pair, the zero count and the exponents beside --model ran
    for name in ("limit_law", "series_from_json", "curve_table", "covariance_eval",
                 "kappa0_identity_check", "residual_exponent_fit", "inputs_from_model"):
        monkeypatch.setattr(expcli, name, _never_called)
    out = tmp_path / "out"
    argv = [*argv, "--out", str(out)]
    if doc is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--config", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"rosenlab: {message}\n"
    assert not out.exists()


_CURVES = ["rate", "curves", "--alpha-grid", "0.1:0.4:4"]


@pytest.mark.parametrize("argv, doc, message", [
    (["rosenblatt", "build", "--set", WINDOW, "--alpha", "0.4"], {"out": 5},
     "--out must be a path, got 5"),
    (["rosenblatt", "sample", "--n", "10"], {"series": 5}, "--series must be a path, got 5"),
    (["rosenblatt", "sample", "--n", "10"], {"series": ["series.json"]},
     "--series must be a path, got ['series.json']"),
    (["covariance", "eval", "--model", MODEL, "--r", ","], None,
     "--r must hold at least one number"),
    (_EXPERIMENT, {"r_grid": []}, "--r must hold at least one number"),
    ([*_CURVES, "--family", "linnik", "--d", "1", "--sigma", "0.6", "--theta", "0.3"], None,
     "--family linnik does not read --theta"),
    ([*_CURVES, "--family", "localglobal", "--d", "2", "--sigma", "9"], None,
     "--family localglobal does not read --d, --sigma"),
    ([*_CURVES, "--family", "linnik", "--d", "1", "--sigma", "0.6"], {"theta": 0.5},
     "--family linnik does not read --theta"),
], ids=["config-out-number", "config-series-number", "config-series-list", "r-empty",
        "config-r_grid-empty", "linnik-theta", "localglobal-d-sigma", "config-linnik-theta"])
def test_values_no_command_reads_exit_2_with_one_line_before_any_work(
    tmp_path, capsys, monkeypatch, argv, doc, message
):
    # the numbers as paths raised TypeError or read file descriptor 5, the
    # empty lists wrote a header-only table, and the curve options were
    # dropped without a word
    monkeypatch.chdir(tmp_path)
    for name in ("limit_law", "series_from_json", "curve_table", "covariance_eval"):
        monkeypatch.setattr(expcli, name, _never_called)
    if doc is None or "out" not in doc:
        argv = [*argv, "--out", "out.csv"]
    if doc is not None:
        (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = [*argv, "--config", "config.json"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"rosenlab: {message}\n"
    assert sorted(os.listdir(tmp_path)) == (["config.json"] if doc is not None else [])


def test_rate_curves_record_only_the_options_their_family_reads(tmp_path):
    outs = {}
    for name, flags in [
        ("default", ["--family", "localglobal"]),
        ("theta", ["--family", "localglobal", "--theta", "0.5"]),
        ("linnik", ["--family", "linnik", "--d", "1", "--sigma", "0.6"]),
    ]:
        outs[name] = tmp_path / f"{name}.csv"
        assert main([*_CURVES, *flags, "--out", str(outs[name])]) == 0
    # theta defaults to 0.5 for localglobal, and linnik has none
    assert outs["default"].read_bytes() == outs["theta"].read_bytes()
    assert _manifest(outs["default"])["config"]["derived_theta"] == 0.5
    linnik = _manifest(outs["linnik"])["config"]
    assert "theta" not in linnik and "derived_theta" not in linnik


def _option_names(command):
    group, action = command.split()
    parser = expcli._build_parser()

    def choices(p, name):
        sub = next(a for a in p._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices[name]

    leaf = choices(choices(parser, group), action)
    return {opt[2:] for a in leaf._actions for opt in a.option_strings if opt.startswith("--")}


@pytest.mark.parametrize("command", sorted(expcli._COMMANDS))
def test_every_command_option_has_a_config_key(command):
    # the config document names a command's options, but rate experiment
    # stores its --set and --r as window and r_grid, as config_to_json does
    renamed = {"set": "window", "r": "r_grid"} if command == "rate experiment" else {}
    options = _option_names(command) - {"help", "config", "seed", "out"}
    keys = [key for opt in expcli._COMMANDS[command][1] for key in opt.keys]
    assert {renamed.get(o, o) for o in options} == set(keys)


def test_a_config_at_the_lattice_budget_is_admitted():
    # r_grid at 2^22 + 1 points is refused before any work (see above);
    # 2^22 points are the budget, admitted without allocating them
    config = ExperimentConfig(
        model=expcli.model_from_json(MODEL),
        window=expcli.set_from_json(WINDOW),
        functional="h2",
        r_grid=(8.0, 2.0**19),
    )
    assert expcli._experiment_plan(config, 2.0**19).n_per_axis == 2**22


def test_thread_option_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        main(_experiment(tmp_path / "rho.csv", "--r", "4", "--threads", "2"))
    config = ExperimentConfig(
        model=expcli.model_from_json(MODEL),
        window=expcli.set_from_json(WINDOW),
        functional="h2",
        r_grid=(4.0,),
    )
    assert not hasattr(config, "threads")
    assert "threads" not in json.loads(config_to_json(config))


# values the CSV tests write next to the draws
_SPECIAL = (-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-310, 1e300, 0.1)


def test_sample_csv_matches_the_csv_writer(tmp_path, monkeypatch):
    # eight terms: the sampler refuses a series of four or fewer
    nu = tuple(1.5 / (1.0 + j) for j in range(8))
    series = EigenSeries(eigenvalues=nu, kept=8, tail_mass=0.0,
                         raw_variance=2.0 * sum(v * v for v in nu))
    (tmp_path / "series.json").write_text(series_to_json(series), encoding="utf-8")
    draws = expcli.sample(series, 1000, 5)
    special = np.array(_SPECIAL)
    monkeypatch.setattr(expcli, "sample", lambda s, n, seed: np.concatenate([draws, special]))
    out = tmp_path / "x.csv"
    argv = ["rosenblatt", "sample", "--series", str(tmp_path / "series.json"),
            "--n", "1008", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    # the general path: csv.writer over _fmt-formatted rows
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("x",))
    for v in np.concatenate([draws, special]):
        writer.writerow([expcli._fmt(float(v))])
    assert out.read_bytes() == buf.getvalue().encode("utf-8")
    assert b"\n-0.0\n" in out.read_bytes() and b"\nnan\n" in out.read_bytes()


def test_sample_csv_streams_the_same_bytes_in_chunks(tmp_path, monkeypatch, capsys):
    nu = tuple(1.5 / (1.0 + j) for j in range(8))
    series = EigenSeries(eigenvalues=nu, kept=8, tail_mass=0.0,
                         raw_variance=2.0 * sum(v * v for v in nu))
    (tmp_path / "series.json").write_text(series_to_json(series), encoding="utf-8")
    n = expcli._CSV_CHUNK + 3
    draws = np.random.default_rng(2).standard_normal(n)
    monkeypatch.setattr(expcli, "sample", lambda s, count, seed: draws)
    whole = "x\n" + "".join(f"{v!r}\n" for v in draws.tolist())
    argv = ["rosenblatt", "sample", "--series", str(tmp_path / "series.json"), "--n", str(n)]
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == whole.encode("utf-8")
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == whole


def _repr_text(values):
    return "".join(f"{v!r}\n" for v in np.asarray(values, dtype=float).tolist())


def _random_bits(rng, n, exponents=(0, 2047)):
    """Doubles with random significands, signs and biased exponents."""
    bits = rng.integers(0, 2**52, n, dtype=np.uint64)
    bits |= rng.integers(*exponents, n).astype(np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
    return bits.view(np.float64)


_KERNEL_SETS = {
    "random bit patterns": lambda rng, n: _random_bits(rng, n),
    # exponents 2**-14 .. 2**54 cover the positional range 1e-4 .. 1e16
    "random positional bit patterns": lambda rng, n: _random_bits(rng, n, (1009, 1078)),
    "log-uniform 1e-10 to 1e20": lambda rng, n: (
        rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-10.0, 20.0, n)
    ),
    "rounded to 3 decimals": lambda rng, n: np.round(rng.uniform(-1e3, 1e3, n), 3),
    "integers up to 1e15": lambda rng, n: rng.integers(-10**15, 10**15, n).astype(float),
    "powers of 2 and 10 and their neighbours": lambda rng, n: np.concatenate([
        np.nextafter(b, toward) * sign
        for b in (2.0 ** np.arange(-40, 70), 10.0 ** np.arange(-12, 22))
        for toward in (-np.inf, 0.0, np.inf) for sign in (1.0, -1.0)
    ] + [2.0 ** np.arange(-40, 70), 10.0 ** np.arange(-12, 22)]),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_SETS))
def test_repr_lines_writes_the_bytes_of_repr(name):
    values = _KERNEL_SETS[name](np.random.default_rng(sorted(_KERNEL_SETS).index(name)), 200_000)
    assert expcli._repr_lines(values) == _repr_text(values)


def test_repr_lines_fixed_cases():
    values = [
        # y / 10 is an exact tie here, and repr's last digit is 2, not 3
        794740577644134.25, -794740577644134.25,
        # the ends of the positional range and their neighbours
        1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
        1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf),
        0.0, -0.0, 5e-324, -2.2250738585072014e-308, 2.225073858507201e-308,
        np.inf, -np.inf, np.nan,
        0.1, 0.5, 1.0, 9.999999999999998, 0.125, 100.0, 1.7976931348623157e308,
        9007199254740993.0, 9999999999999998.0, 123456789012345.67,
    ]
    assert expcli._repr_lines(np.array(values)) == _repr_text(values)
    assert expcli._repr_lines(np.array(values[:2])) == "794740577644134.2\n-794740577644134.2\n"


def test_repr_lines_keeps_repr_for_a_few_draws_only(monkeypatch):
    # repr writes only what the kernel leaves to it: the 17 NaNs here and a
    # few edge cases among the 2**14 draws
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    values = np.random.default_rng(4).standard_normal(expcli._CSV_CHUNK) * 3.0
    values[::1000] = np.nan
    monkeypatch.setattr(expcli, "repr", counted, raising=False)
    text = expcli._repr_lines(values)
    monkeypatch.undo()
    assert text == _repr_text(values)
    assert 17 <= len(calls) <= 40


def test_csv_chunks_meet_at_their_boundary():
    n = 2 * expcli._CSV_CHUNK + 5
    draws = np.random.default_rng(6).standard_normal(n)
    for start in (expcli._CSV_CHUNK, 2 * expcli._CSV_CHUNK):
        draws[start - 2 : start + 2] = (-0.0, np.nan, 1e-5, 794740577644134.25)
    text = "".join(expcli._csv_text(("x",), draws))
    assert text == "x\n" + _repr_text(draws)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_csv_text_is_the_serial_join_on_any_worker_count(monkeypatch, workers):
    n = 3 * expcli._CSV_CHUNK + 7
    draws = np.random.default_rng(10).standard_normal(n) * 5.0
    # the special values of the CSV writer test, across every chunk boundary
    for start in range(expcli._CSV_CHUNK, n, expcli._CSV_CHUNK):
        draws[start - 4 : start + 4] = _SPECIAL
    serial = "x\n" + "".join(
        expcli._repr_lines(draws[start : start + expcli._CSV_CHUNK])
        for start in range(0, n, expcli._CSV_CHUNK)
    )
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: workers)
    # more workers than cores, switching threads as often as possible
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        text = "".join(expcli._csv_text(("x",), draws))
    finally:
        sys.setswitchinterval(interval)
    assert text == serial == "x\n" + _repr_text(draws)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_csv_text_holds_two_chunks_per_worker(monkeypatch, workers):
    draws = np.random.default_rng(11).standard_normal(3 * expcli._CSV_CHUNK + 7)
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: workers)
    tracemalloc.start()
    try:
        for _ in expcli._csv_text(("x",), draws):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the bound of test_repr_lines_working_memory_per_chunk per chunk in flight
    assert peak <= 2 * workers * 8e6


def test_the_parser_is_built_once():
    assert expcli._build_parser() is expcli._build_parser()


def test_repr_lines_working_memory_per_chunk():
    values = np.random.default_rng(8).standard_normal(expcli._CSV_CHUNK)
    expcli._repr_lines(values)
    tracemalloc.start()
    try:
        expcli._repr_lines(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 5 MB at 2**14 values
    assert peak <= 8e6


def test_sample_manifest_records_the_write_time(tmp_path):
    nu = tuple(1.5 / (1.0 + j) for j in range(8))
    series = EigenSeries(eigenvalues=nu, kept=8, tail_mass=0.0,
                         raw_variance=2.0 * sum(v * v for v in nu))
    (tmp_path / "series.json").write_text(series_to_json(series), encoding="utf-8")
    out = tmp_path / "x.csv"
    argv = ["rosenblatt", "sample", "--series", str(tmp_path / "series.json"),
            "--n", "20000", "--out", str(out)]
    assert main(argv) == 0
    manifest = _manifest(out)
    assert 0.0 < manifest["config"]["derived_write_seconds"] <= manifest["wall_seconds"]


def test_sample_manifest_records_the_table_and_its_bound(tmp_path):
    nu = tuple(2.0 * (-0.8) ** j for j in range(12))
    series = EigenSeries(eigenvalues=nu, kept=12, tail_mass=0.0,
                         raw_variance=2.0 * sum(v * v for v in nu))
    (tmp_path / "series.json").write_text(series_to_json(series), encoding="utf-8")
    out = tmp_path / "x.csv"
    argv = ["rosenblatt", "sample", "--series", str(tmp_path / "series.json"),
            "--n", "500", "--seed", "6", "--out", str(out)]
    assert main(argv) == 0
    config = json.loads((tmp_path / "x.csv.manifest.json").read_text(encoding="utf-8"))["config"]
    table = series.cdf_table
    assert config["derived_cdf_table_cells"] == table.cells
    assert config["derived_ks_bound"] == table.ks_bound <= 1e-10 + 1e-12
    draws = np.loadtxt(out, skiprows=1)
    np.testing.assert_array_equal(draws, expcli.sample(series, 500, 6))


def test_sample_of_a_three_term_series_exits_2(tmp_path, capsys):
    series = EigenSeries(eigenvalues=(1.5, 0.25, 0.125), kept=3, tail_mass=0.0,
                         raw_variance=4.65625)
    (tmp_path / "series.json").write_text(series_to_json(series), encoding="utf-8")
    out = tmp_path / "x.csv"
    argv = ["rosenblatt", "sample", "--series", str(tmp_path / "series.json"),
            "--n", "10", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("rosenlab: characteristic function of the series decays too slowly")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("change, message", [
    ({"eigenvalues": ["a"], "kept": 1}, "nonempty list of finite numbers"),
    ({"eigenvalues": [], "kept": 0}, "nonempty list of finite numbers"),
    ({"eigenvalues": [1.0, float("nan"), 0.5, 0.25, 0.125], "kept": 5},
     "nonempty list of finite numbers"),
    ({"kept": 7}, "kept 7 is not its 5 eigenvalues"),
])
def test_sample_refuses_a_malformed_series_before_tabulating(
    tmp_path, capsys, monkeypatch, change, message
):
    def unused(*args):
        raise AssertionError("a malformed series must not reach the CDF table")

    monkeypatch.setattr(rosenblatt, "_node_plan", unused)
    doc = {"eigenvalues": [1.0, 0.75, 0.5, 0.25, 0.125], "kept": 5, "tail_mass": 0.0,
           "raw_variance": 3.6875, **change}
    (tmp_path / "series.json").write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "x.csv"
    argv = ["rosenblatt", "sample", "--series", str(tmp_path / "series.json"),
            "--n", "10", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("rosenlab: series ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--series", "missing.json"], "cannot read --series 'missing.json': No such file or directory"),
    (["--config", "missing.json"], "cannot read --config 'missing.json': No such file or directory"),
    (["--out", "nodir/x.csv"], "cannot write --out 'nodir/x.csv': no directory 'nodir'"),
], ids=["series", "config", "out"])
def test_an_unopenable_path_exits_2_with_one_line_before_any_work(
    tmp_path, capsys, monkeypatch, flags, message
):
    # each raised FileNotFoundError with a traceback and exit code 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "series.json").write_text("{}", encoding="utf-8")
    for name in ("series_from_json", "sample"):
        monkeypatch.setattr(expcli, name, _never_called)
    assert main(["rosenblatt", "sample", "--series", "series.json", "--n", "10", *flags]) == 2
    assert capsys.readouterr().err == f"rosenlab: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["series.json"]


def _count_solves(monkeypatch):
    solves = []
    checked = fieldsim.circulant_spectrum

    def counted(plan):
        solves.append((plan.extent, plan.padding))
        return checked(plan)

    monkeypatch.setattr(fieldsim, "circulant_spectrum", counted)
    fieldsim.clear_spectrum_cache()
    return solves


def _tried(extent, padding):
    # the escalation starts at the minimal exact torus, padding 2, and
    # doubles until it is admissible
    return [(extent, 2**j) for j in range(1, padding.bit_length())]


def test_manifest_records_the_embedding_of_every_r(tmp_path, monkeypatch):
    solves = _count_solves(monkeypatch)
    out = tmp_path / "rho.csv"
    assert main(_experiment(out, "--r", "4,8")) == 0
    manifest = json.loads((tmp_path / "rho.csv.manifest.json").read_text(encoding="utf-8"))
    # both r are drawn on the lattice of r=8: h = 0.5 on the unit interval
    # gives 32 points, and each window holds 4 r of them
    drawn = manifest["config"]["derived_embedding"]
    assert (drawn["drawn_on_r"], drawn["n_per_axis"]) == (8.0, 32)
    assert manifest["config"]["derived_window_sites"] == [16, 32]
    m, n, padding = drawn["torus_side"], drawn["n_per_axis"], drawn["padding"]
    assert padding >= 2 and m >= 2 * (n - 1)
    assert m == 2 ** (padding * n - 1).bit_length()  # smallest power of two >= padding n
    assert 0.0 <= drawn["clamped_share"] < 1e-6
    # one escalation, on the lattice of r=8, and no spectrum solved again
    assert solves == _tried(8.0, padding)
    fieldsim.clear_spectrum_cache()
    stages = manifest["config"]["derived_stage_seconds"]
    # each row counts only its own CDF, KS and bootstrap work
    runtimes = manifest["config"]["derived_runtime_seconds"]
    assert stages["rows"] == pytest.approx(sum(runtimes), rel=1e-12)
    spent = stages["limit_law"] + stages["draws"]["seconds"] + stages["rows"]
    assert 0.0 < spent <= manifest["wall_seconds"]
    # 1000 replicates are 500 pairs, and 2^18 sites hold them all on the
    # torus of r=8: one stream, and so one worker
    draws = stages["draws"]
    assert draws["pairs_per_stream"] == fieldsim._BLOCK_SITES // m
    assert (draws["streams"], draws["workers"]) == (1, 1)
    assert "noise_wait_seconds" not in draws


def test_unaligned_lattices_are_read_off_the_largest_r(tmp_path, monkeypatch):
    solves = _count_solves(monkeypatch)
    captured = {}
    scalar = expcli.normalized_statistic

    def recorded(kr, c2, r, params):
        captured.setdefault(r, []).append(kr)
        return scalar(kr, c2, r, params)

    monkeypatch.setattr(expcli, "normalized_statistic", recorded)
    out = tmp_path / "rho.csv"
    # h = 0.3 divides neither 1 nor 1.5: r=1 alone would lay out 8 cells,
    # out to 1.2, and r=1.5 lays out 10, out to 1.5
    assert main(_experiment(out, "--r", "1,1.5", "--h", "0.3")) == 0
    config = json.loads((tmp_path / "rho.csv.manifest.json").read_text(encoding="utf-8"))["config"]
    drawn = config["derived_embedding"]
    assert (drawn["drawn_on_r"], drawn["n_per_axis"]) == (1.5, 10)
    # centres at +-0.15, +-0.45, ... +-1.35: six of them lie in [-1, 1], all
    # ten in [-1.5, 1.5]
    assert config["derived_window_sites"] == [6, 10]
    # one escalation, on the lattice of r=1.5
    assert solves == _tried(1.5, drawn["padding"])
    fieldsim.clear_spectrum_cache()
    # r=1.5 reads the stream of the tag, as when it was drawn alone
    plan = fieldsim.SimulationPlan(
        model=expcli.model_from_json(MODEL), dimension=1, h=0.3, extent=1.5, seed=7
    )
    alone = fieldsim.window_integrals(
        plan, expcli.functional_catalog("abs-centered"), expcli.set_from_json(WINDOW),
        (1.5,), 1000, partial(fieldsim.replicate_generator, 7, expcli._REPLICATE_TAG),
    )
    assert captured[1.5] == list(alone.sums[0])
    assert len(captured[1.0]) == 1000


def test_the_largest_r_keeps_its_own_stream(tmp_path, monkeypatch):
    captured = {}
    scalar = expcli.normalized_statistic

    def recorded(kr, c2, r, params):
        captured.setdefault(r, []).append(kr)
        return scalar(kr, c2, r, params)

    monkeypatch.setattr(expcli, "normalized_statistic", recorded)
    # r=8 sums as a one-radius draw on its own plan from the stream the tag
    # keys, whatever the smaller r of the grid; abs-centered has c0 = 0
    config = ExperimentConfig(
        model=expcli.model_from_json(MODEL),
        window=expcli.set_from_json(WINDOW),
        functional="abs-centered",
        r_grid=(8.0,),
        master_seed=7,
        h=0.5,
    )
    stream = partial(fieldsim.replicate_generator, 7, expcli._REPLICATE_TAG)
    G = expcli.functional_catalog("abs-centered")
    alone = fieldsim.window_integrals(
        expcli._experiment_plan(config, 8.0), G, config.window, (8.0,), 1000, stream
    )
    for grid in ("8", "4,8", "2,4,8"):
        captured.clear()
        assert main(_experiment(tmp_path / "rho.csv", "--r", grid)) == 0
        assert captured[8.0] == list(alone.sums[0]), grid
        assert all(len(kr) == 1000 for kr in captured.values())


DISK_MODEL = json.dumps({"family": "cauchy", "d": 2, "theta": 0.3})
DISK = json.dumps({"shape": "ball", "R": 1.0, "d": 2})


def _disk_experiment(out, *flags):
    return [
        "rate", "experiment", "--model", DISK_MODEL, "--set", DISK, "--functional", "h2",
        "--h", "1", "--seed", "7", "--out", str(out), *flags,
    ]


@pytest.mark.parametrize("experiment, grids", [
    (_experiment, ("16", "8,16", "4,8,16")),
    (_disk_experiment, ("16", "8,16")),
], ids=["interval", "disk"])
def test_the_largest_r_row_does_not_depend_on_the_grid(tmp_path, experiment, grids):
    # the streams were keyed by the largest r's index in the grid: on the
    # interval its row read rho = 0.1348, 0.1392 and 0.1296
    last = set()
    for i, grid in enumerate(grids):
        out = tmp_path / f"rho{i}.csv"
        assert main(experiment(out, "--r", grid)) == 0
        last.add(out.read_text(encoding="utf-8").splitlines()[-1])
    assert len(last) == 1 and next(iter(last)).startswith("16.0,1000,")


@pytest.mark.parametrize("experiment, model, window, h, grid, sites", [
    (_experiment, MODEL, WINDOW, 0.3, (1.0, 1.5), [6, 10]),
    (_disk_experiment, DISK_MODEL, DISK, 1.0, (3.0, 4.5), [32, 60]),
], ids=["interval", "disk"])
def test_each_r_sums_the_sites_of_its_own_lattice(
    tmp_path, experiment, model, window, h, grid, sites
):
    # the lattice of the largest r was laid out from -extent: r=1 summed 6
    # sites beside r=1.5 and 7 alone, the disk at r=3 summed 29 beside
    # r=4.5 and 32 alone
    out = tmp_path / "rho.csv"
    assert main(experiment(out, "--r", ",".join(map(str, grid)), "--h", str(h))) == 0
    manifest = json.loads((tmp_path / "rho.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["derived_window_sites"] == sites
    window = expcli.set_from_json(window)
    for r, count in zip(grid, sites):
        own = fieldsim.SimulationPlan(
            model=expcli.model_from_json(model), dimension=window.dimension, h=h,
            extent=fieldsim.window_extent(window, r), seed=7,
        )
        mask = fieldsim._window_mask(own.origin, own.n_per_axis, h, window, r)
        assert np.count_nonzero(mask) == count, r


@pytest.mark.parametrize("grid", ["0.1", "0.1,8"])
def test_a_window_without_sites_exits_2_before_any_embedding(tmp_path, capsys, monkeypatch, grid):
    # --r 0.1,8 wrote a row of 0 sites with rho 0.567 and stderr 0.0
    monkeypatch.setattr(fieldsim, "_spectrum_once", _never_called)
    fieldsim.clear_spectrum_cache()
    out = tmp_path / "rho.csv"
    assert main(_experiment(out, "--r", grid, "--h", "0.25")) == 2
    assert capsys.readouterr().err == (
        "rosenlab: the window at r=0.1 holds no lattice site at h=0.25\n"
    )
    assert not out.exists()


def test_simulate_field_defaults_come_from_fieldsim(tmp_path):
    argv = ["simulate", "field", "--model", MODEL, "--h", "1.0", "--extent", "8.0",
            "--seed", "3", "--out", str(tmp_path / "field.npz")]
    assert main(argv) == 0
    plan = fieldsim.SimulationPlan(
        model=expcli.model_from_json(MODEL), dimension=1, h=1.0, extent=8.0, seed=3
    )
    got = fieldsim.import_field(str(tmp_path / "field.npz"))
    assert np.array_equal(got.values, fieldsim.simulate_field(plan).values)


def test_padding_one_is_refused_on_the_command_line(tmp_path, capsys):
    argv = ["simulate", "field", "--model", MODEL, "--h", "1.0", "--extent", "8.0",
            "--padding", "1", "--out", str(tmp_path / "field.npz")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("rosenlab: padding must be >= 2")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "field.npz").exists()


def test_python_dash_m_rosenlab_runs_without_warnings():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "rosenlab", "rate", "bound", "--model", MODEL],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.splitlines()[0].startswith("d,alpha,q,upsilon")


def _manifest(out):
    return json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))


# command, its own flags, the CSV header, the row count
_TABLE_COMMANDS = [
    (["covariance", "eval"], ["--model", MODEL, "--r", "0,1,2"], ["r", "covariance"], 3),
    (["spectral", "eval"], ["--model", MODEL, "--lam", "0.5,1"], ["lam", "density"], 2),
    (
        ["spectral", "fit-upsilon"], ["--model", MODEL],
        ["family", "upsilon_fit", "upsilon_formula", "difference"], 1,
    ),
    (["geometry", "ft"], ["--set", WINDOW, "--z", "0,1"], ["z", "ft_real", "ft_imag"], 2),
    (
        ["hermite", "coeffs"], ["--functional", "abs-centered", "--order", "4"],
        ["j", "coefficient"], 5,
    ),
    (
        ["rate", "curves"], ["--family", "localglobal", "--alpha-grid", "0.1:0.4:4"],
        ["alpha", "kappa1_over_3", "geometric_term_over_3", "kappa_bound"], 4,
    ),
    (
        ["verify", "supmin"],
        ["--d", "1", "--alpha", "0.4", "--q", "2", "--upsilon", "0.5", "--resolution", "16"],
        ["grid_value", "closed_form", "deviation", "beta", "gamma", "gamma0", "resolution",
         "refined"],
        1,
    ),
]


@pytest.mark.parametrize("command, flags, header, count", _TABLE_COMMANDS,
                         ids=[" ".join(c[0]) for c in _TABLE_COMMANDS])
def test_table_commands_write_their_csv_and_manifest(tmp_path, command, flags, header, count):
    out = tmp_path / "table.csv"
    assert main([*command, *flags, "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) == count + 1
    manifest = _manifest(out)
    assert manifest["command"] == " ".join(command)
    assert manifest["outputs"] == [str(out)]


def test_table_commands_compute_what_they_name(tmp_path):
    out = tmp_path / "cov.csv"
    assert main(["covariance", "eval", "--model", MODEL, "--r", "0,1", "--out", str(out)]) == 0
    rows = _rows(out)
    # Cauchy: B(r) = (1 + r^2)^(-theta)
    assert [float(row["covariance"]) for row in rows] == pytest.approx([1.0, 2.0**-0.2], rel=1e-14)
    out = tmp_path / "ft.csv"
    assert main(["geometry", "ft", "--set", WINDOW, "--z", "1", "--out", str(out)]) == 0
    assert float(_rows(out)[0]["ft_real"]) == pytest.approx(2.0 * np.sin(1.0), rel=1e-14)


def _recorded(doc, key):
    """Every value stored under key anywhere in a JSON document."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k == key:
                yield v
            yield from _recorded(v, key)
    elif isinstance(doc, list):
        for v in doc:
            yield from _recorded(v, key)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_manifests_record_the_echoed_values_as_json_numbers(tmp_path, monkeypatch, source):
    # the benchmark's checks find these keys anywhere in a manifest and
    # compare them with numbers, so "0.4" in place of 0.4 fails them
    nu = tuple(1.5 / (1.0 + j) for j in range(8))
    series = EigenSeries(eigenvalues=nu, kept=8, tail_mass=0.0,
                         raw_variance=2.0 * sum(v * v for v in nu))
    (tmp_path / "series.json").write_text(series_to_json(series), encoding="utf-8")
    monkeypatch.setattr(expcli, "limit_law", lambda window, alpha: series)
    runs = [
        (["rosenblatt", "build"], {"set": WINDOW, "alpha": 0.4}, {"alpha": 0.4}),
        (["rosenblatt", "sample"], {"series": str(tmp_path / "series.json"), "n": 500, "seed": 6},
         {"n": 500, "master_seed": 6}),
        (["rate", "experiment"],
         {"model": MODEL, "set": WINDOW, "functional": "abs-centered", "r": [4, 8],
          "replicates": 1000, "h": 0.5},
         {"r_grid": [4.0, 8.0], "replicates": 1000}),
    ]
    for i, (command, options, echoed) in enumerate(runs):
        out = tmp_path / f"out{i}"
        argv = [*command, "--out", str(out)]
        if source == "flag":
            for name, value in options.items():
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                argv += [f"--{name}", text]
        else:
            renamed = {"set": "window", "r": "r_grid"} if command[1] == "experiment" else {}
            doc = {renamed.get(k, k): v for k, v in options.items()}
            (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 0
        manifest = _manifest(out)
        manifest["config"].pop("config_document")  # the document as it was given
        for key, wanted in echoed.items():
            found = list(_recorded(manifest, key))
            assert found and all(json.dumps(v) == json.dumps(wanted) for v in found), key


def test_rosenblatt_build_writes_a_calibrated_series(tmp_path):
    # the unit interval, the interval of half-length 0.5 and a translate of
    # [-1, 1]: each has the unit interval's law dilated, so its factor
    factors = []
    for window in (WINDOW, json.dumps({"shape": "ball", "R": 0.5, "d": 1}),
                   json.dumps({"shape": "rect", "a": [-0.5], "b": [1.5]})):
        out = tmp_path / "series.json"
        argv = ["rosenblatt", "build", "--set", window, "--alpha", "0.4", "--out", str(out)]
        assert main(argv) == 0
        series = series_from_json(out.read_text(encoding="utf-8"))
        manifest = _manifest(out)
        assert manifest["command"] == "rosenblatt build"
        config = manifest["config"]
        assert config["alpha"] == 0.4
        law = config["derived_limit_law"]
        assert (law["kept"], law["tail_mass"]) == (series.kept, series.tail_mass)
        factor = law["calibration_factor"]
        assert factor == series.calibration_factor and 0.97 <= factor <= 1.03
        factors.append(factor)
        # the stored series hits the oracle; the raw one is nu / factor
        oracle = rosenblatt.variance_oracle(expcli.set_from_json(window), 0.4)
        assert law["variance"] == series.variance == pytest.approx(oracle, rel=1e-12)
        raw = np.asarray(series.eigenvalues) / factor
        assert 2.0 * np.sum(raw**2) == pytest.approx(law["raw_variance"], rel=1e-12)
    assert factors == pytest.approx([factors[0]] * 3, rel=1e-13)


def test_rosenblatt_build_refuses_a_rectangle_in_the_plane(tmp_path, capsys):
    out = tmp_path / "series.json"
    window = json.dumps({"shape": "rect", "a": [-1.0, -0.5], "b": [1.0, 0.5]})
    argv = ["rosenblatt", "build", "--set", window, "--alpha", "0.4", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("rosenlab: no limit law for a rect window in d=2")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_rate_experiment_draws_the_fields_before_it_builds_the_limit_law(tmp_path, monkeypatch):
    # the law's BLAS threads spin on after its solve and would share the
    # cores with the draws' pool
    calls = []

    def recorded(name, fn):
        def wrapper(*args):
            calls.append(f"{name} entered")
            result = fn(*args)
            calls.append(f"{name} returned")
            return result

        return wrapper

    for name in ("window_integrals", "limit_law"):
        monkeypatch.setattr(expcli, name, recorded(name, getattr(expcli, name)))
    assert main(_experiment(tmp_path / "rho.csv", "--r", "4,8")) == 0
    assert calls == ["window_integrals entered", "window_integrals returned",
                     "limit_law entered", "limit_law returned"]


def test_rate_experiment_refuses_a_rectangle_in_the_plane_before_the_draws(
    tmp_path, capsys, monkeypatch
):
    for name in ("window_integrals", "limit_law"):
        monkeypatch.setattr(expcli, name, _never_called)
    out = tmp_path / "rho.csv"
    argv = ["rate", "experiment",
            "--model", json.dumps({"family": "cauchy", "d": 2, "theta": 0.3}),
            "--set", json.dumps({"shape": "rect", "a": [-1.0, -0.5], "b": [1.0, 0.5]}),
            "--functional", "h2", "--h", "1.0", "--r", "8", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "rosenlab: no limit law for a rect window in d=2; only balls in d <= 2 "
        "and 1-d intervals\n"
    )
    assert not out.exists()


def test_rate_experiment_normalizes_one_replicate_per_call(tmp_path, monkeypatch):
    # perfbench's traced X_r-moment check reads each X_r at this call, so
    # the normalization stays one scalar call per replicate and r
    calls = []
    scalar = expcli.normalized_statistic

    def counted(kr, c2, r, params):
        assert np.ndim(kr) == 0
        calls.append(r)
        return scalar(kr, c2, r, params)

    monkeypatch.setattr(expcli, "normalized_statistic", counted)
    assert main(_experiment(tmp_path / "rho.csv", "--r", "2,4,8", "--replicates", "1001")) == 0
    assert calls == [2.0] * 1001 + [4.0] * 1001 + [8.0] * 1001


def test_a_dilated_interval_gives_the_rho_of_the_unit_interval(tmp_path):
    # [-r/2, r/2] at r = 16, 32, 64 is [-r, r] at r = 8, 16, 32: one seed
    # draws the same fields, and with the law dilated by 0.5^(1 - alpha) rho
    # differs only through L(r) / L(2r) of the normalization, about 0.2 %;
    # a law 5 % too wide on the smaller interval moves it by about 1.6e-2
    def rho(window, r_grid, out):
        argv = ["rate", "experiment", "--model", MODEL, "--set", window, "--functional", "h2",
                "--h", "0.25", "--r", r_grid, "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        return np.array([float(row["rho"]) for row in _rows(out)])

    half = rho(json.dumps({"shape": "ball", "R": 0.5, "d": 1}), "16,32,64", tmp_path / "half.csv")
    unit = rho(WINDOW, "8,16,32", tmp_path / "unit.csv")
    assert np.max(np.abs(half - unit)) < 2e-3


def test_build_and_experiment_share_one_limit_law(tmp_path, monkeypatch):
    # Cauchy theta=0.2 in d=1 has alpha = 2 theta = 0.4
    used = []

    def recorded(series, x):
        used.append(series)
        return series_cdf(series, x)

    monkeypatch.setattr(expcli, "series_cdf", recorded)
    assert main(_experiment(tmp_path / "rho.csv", "--r", "4")) == 0
    out = tmp_path / "series.json"
    assert main(["rosenblatt", "build", "--set", WINDOW, "--alpha", "0.4", "--out", str(out)]) == 0
    built = _manifest(out)["config"]["derived_limit_law"]
    assert built == _manifest(tmp_path / "rho.csv")["config"]["derived_limit_law"]
    assert series_from_json(out.read_text(encoding="utf-8")).eigenvalues == used[0].eigenvalues


def test_simulate_field_takes_its_dimension_from_the_model(tmp_path, capsys):
    argv = ["simulate", "field", "--model", MODEL, "--d", "2", "--h", "1.0",
            "--extent", "8.0", "--out", str(tmp_path / "field.npz")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --d 2" in capsys.readouterr().err
    assert not (tmp_path / "field.npz").exists()


@pytest.mark.parametrize("flags", [
    ["--no-calibrate"], ["--d", "1"], ["--n-nodes", "1024"], ["--cutoff", "200"], ["--keep", "100"],
])
def test_removed_build_options_fail_at_argparse(tmp_path, capsys, flags):
    argv = ["rosenblatt", "build", "--set", WINDOW, "--alpha", "0.4",
            "--out", str(tmp_path / "series.json"), *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not (tmp_path / "series.json").exists()


def test_simulate_field_takes_the_d2_clamp_from_fieldsim(tmp_path):
    # this lattice's spectrum stays below -1e-8 of its peak up to padding 64;
    # the d=2 tolerance 1e-7 admits it there, as rate experiment draws it
    model = json.dumps({"family": "cauchy", "d": 2, "theta": 0.1})
    out = tmp_path / "field.npz"
    argv = ["simulate", "field", "--model", model, "--h", "1.0", "--extent", "8",
            "--seed", "4", "--out", str(out)]
    assert main(argv) == 0
    plan = fieldsim.SimulationPlan(
        model=expcli.model_from_json(model), dimension=2, h=1.0, extent=8.0, seed=4
    )
    assert plan.clamp_tol == fieldsim.CLAMP_TOL[2] == 1e-7
    emb = fieldsim.embedding(plan)
    assert (emb.padding, emb.torus_side) == (64, 1024)
    assert 0.0 < emb.clamped_share < 1e-5
    got = fieldsim.import_field(str(out))
    assert got.values.shape == (16, 16)
    assert np.array_equal(got.values, fieldsim.simulate_field(plan).values)
    fieldsim.clear_spectrum_cache()
