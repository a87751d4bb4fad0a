"""The benchmark's workloads: the rosenlab commands each one runs.

A workload is a list of argv lists for rosenlab.expcli.main. Everything is
passed as flags (no --config document), the seed goes in as --seed and all
outputs go under one directory, from which the checks read them back.
"""

import json
import os

R_D1 = (8, 16, 32, 64, 128, 256)
R_D2 = (8, 16, 32, 64)
SAMPLE_DRAWS = 10**6

D1_MC = {
    "model": {"family": "cauchy", "d": 1, "theta": 0.2},
    "window": {"shape": "ball", "R": 1.0, "d": 1},
    "functional": "abs-centered",
    "h": 0.25,
    "r": R_D1,
    "replicates": 2000,
}

D2_BALL = {
    "model": {"family": "cauchy", "d": 2, "theta": 0.3},
    "window": {"shape": "ball", "R": 1.0, "d": 2},
    "functional": "h2",
    "h": 1.0,
    "r": R_D2,
    "replicates": 1000,
}

LIMIT_LAW = {
    "builds": (
        ("interval", {"shape": "ball", "R": 1.0, "d": 1}, 0.4),
        ("disk", {"shape": "ball", "R": 1.0, "d": 2}, 0.6),
    ),
    "sample_from": "interval",
    "draws": SAMPLE_DRAWS,
}

EXPERIMENTS = {"d1-mc": D1_MC, "d2-ball": D2_BALL}
NAMES = ("d1-mc", "d2-ball", "limit-law")


def _experiment_argv(spec, seed, outdir):
    return [
        "rate", "experiment",
        "--model", json.dumps(spec["model"]),
        "--set", json.dumps(spec["window"]),
        "--functional", spec["functional"],
        "--h", repr(spec["h"]),
        "--r", ",".join(str(r) for r in spec["r"]),
        "--replicates", str(spec["replicates"]),
        "--seed", str(seed),
        "--out", os.path.join(outdir, "rho.csv"),
    ]


def _limit_law_argv(seed, outdir):
    argvs = []
    for name, window, alpha in LIMIT_LAW["builds"]:
        argvs.append([
            "rosenblatt", "build",
            "--set", json.dumps(window),
            "--alpha", repr(alpha),
            "--out", os.path.join(outdir, f"series-{name}.json"),
        ])
    argvs.append([
        "rosenblatt", "sample",
        "--series", os.path.join(outdir, f"series-{LIMIT_LAW['sample_from']}.json"),
        "--n", str(LIMIT_LAW["draws"]),
        "--seed", str(seed),
        "--out", os.path.join(outdir, "draws.csv"),
    ])
    return argvs


def commands(workload, seed, outdir):
    """argv lists, in order, that one round of the workload runs."""
    if workload in EXPERIMENTS:
        return [_experiment_argv(EXPERIMENTS[workload], seed, outdir)]
    if workload == "limit-law":
        return _limit_law_argv(seed, outdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
