"""The rate experiment through the command line entry point."""

import csv
import json

import numpy as np
import pytest

from rosenlab import expcli, fieldsim
from rosenlab.expcli import ExperimentConfig, config_to_json, main

MODEL = json.dumps({"family": "cauchy", "d": 1, "theta": 0.2})
WINDOW = json.dumps({"shape": "ball", "R": 1.0, "d": 1})


def _experiment(out, *flags):
    return [
        "rate", "experiment",
        "--model", MODEL,
        "--set", WINDOW,
        "--functional", "abs-centered",
        "--h", "0.5",
        "--reference-size", "10000",
        "--seed", "7",
        "--out", str(out),
        *flags,
    ]


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("replicates", [1000, 1001])
def test_table_is_identical_for_any_block_size(tmp_path, monkeypatch, replicates):
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
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", 1)  # one pair per block
    assert main(_experiment(tmp_path / "one-pair.csv", *flags)) == 0
    default = (tmp_path / "default.csv").read_bytes()
    assert default == (tmp_path / "one-pair.csv").read_bytes()
    rows = _rows(tmp_path / "default.csv")
    assert [float(row["r"]) for row in rows] == [4.0, 8.0]
    assert all(int(row["replicates"]) == replicates for row in rows)
    assert all(0.0 < float(row["rho"]) < 1.0 for row in rows)


def test_bootstrap_stderr_matches_the_resample_loop():
    # reference: sort each resample and evaluate the distance at its own
    # breakpoints; the second sample has ties
    rng = np.random.default_rng(11)
    ref = np.sort(rng.standard_normal(20000))
    for values in (rng.standard_normal(1000), np.round(rng.standard_normal(1001), 1)):
        n = values.size
        boot = np.random.default_rng(np.random.SeedSequence([5, 2, expcli._BOOTSTRAP_TAG]))
        stats = []
        for _ in range(expcli._BOOTSTRAP_RESAMPLES):
            a = np.sort(values[boot.integers(0, n, n)])
            fr = np.searchsorted(ref, a, side="right") / ref.size
            grid = np.arange(n, dtype=float)
            stats.append(max(np.max(fr - grid / n), np.max((grid + 1.0) / n - fr)))
        assert expcli._bootstrap_stderr(values, ref, 5, 2) == float(np.std(stats, ddof=1))


def test_flags_override_the_config_document(tmp_path):
    doc = {
        "model": json.loads(MODEL),
        "window": json.loads(WINDOW),
        "functional": "abs-centered",
        "r_grid": [8, 16],
        "replicates": 1000,
        "reference_size": 10000,
        "h": 0.5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "rho.csv"
    assert main(["rate", "experiment", "--config", str(path), "--r", "16", "--out", str(out)]) == 0
    rows = _rows(out)
    assert [float(row["r"]) for row in rows] == [16.0]


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
