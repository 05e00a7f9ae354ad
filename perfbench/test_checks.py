"""Each of the benchmark's checks rejects a deliberately wrong result.

    python3 -m pytest perfbench/test_checks.py -q

The right results come from the program itself (a sim Downpour run, a ring
scaling cell) or from numpy; the wrong ones perturb them by the smallest
amount the check must catch.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402


def test_params_within_tolerance_pass():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1000).astype(np.float32)
    assert checks.params_match(x, x) is None
    assert checks.params_match(x, x * (1 + 1e-6)) is None


def test_params_perturbed_beyond_tolerance_fail():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1000).astype(np.float32)
    y = x.copy()
    y[17] += 5e-4 * max(1.0, abs(float(x[17])))  # one weight, 5x the tolerance
    assert "1 parameters differ" in checks.params_match(x, y)


def test_nonfinite_params_fail():
    x = np.zeros(8)
    assert checks.all_finite(x) is None
    x[3] = np.nan
    assert checks.all_finite(x) is not None


def _downpour_run():
    from repro.algos import DownpourOptions, DownpourTrainer, TrainerConfig
    from repro.algos.problems import nlcf_problem

    config = TrainerConfig(p=2, epochs=1, batch_size=1, lr=0.02, seed=3)
    trainer = DownpourTrainer(nlcf_problem(scale="unit", seed=1), config,
                              DownpourOptions(T=2, n_shards=1))
    return trainer, trainer.train()


def test_pushes_match_a_real_run_and_a_missing_push_fails():
    trainer, result = _downpour_run()
    cfg = trainer.config
    expected = checks.expected_pushes(cfg.epochs, trainer.problem.n_train, cfg.p,
                                      cfg.batch_size, trainer.options.T)
    applied = int(result.extras["pushes_applied"])
    assert checks.pushes_match(applied, expected) is None
    assert checks.pushes_match(applied - 1, expected) is not None


def _ring_cell():
    from repro.harness.experiments import scaling

    with workloads.capture_scaling() as seen:
        scaling(p_values=(4,), topology="cluster", n_nodes=1, comm_mode="message")
    return seen["calls"]


def test_ring_bytes_match_the_closed_form_and_one_message_off_fails():
    calls = _ring_cell()
    assert workloads.verify_scaling(calls) == []
    args, result = next((a, r) for a, r in calls if a["algorithm"] == "sasgd")
    wl, p = args["workload"], args["p"]
    k = math.ceil(wl.steps_per_learner_per_epoch(p) / args["T"])
    expected = checks.ring_sasgd_bytes(k, p, wl.param_bytes)
    assert checks.bytes_match(result.total_bytes_per_epoch, expected) is None
    one_message = wl.param_bytes / p  # one ring hop carries one chunk
    assert checks.bytes_match(result.total_bytes_per_epoch - one_message, expected)
    assert checks.bytes_match(result.total_bytes_per_epoch + one_message, expected)


def test_scaling_check_fails_when_sasgd_is_not_faster_at_the_largest_p():
    calls = _ring_cell()
    slow = []
    for args, result in calls:
        if args["algorithm"] == "sasgd":
            result = type(result)(**{**vars(result), "epoch_seconds": 1e9})
        slow.append((args, result))
    assert any("SASGD epoch" in e for e in workloads.verify_scaling(slow))


def test_cross_entropy_and_accuracy_against_a_direct_formula():
    logits = np.array([[2.0, 0.0, -1.0], [0.0, 3.0, 0.0]])
    labels = np.array([0, 2])
    loss, acc = checks.cross_entropy(logits, labels)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert loss == pytest.approx(-(np.log(p[0, 0]) + np.log(p[1, 2])) / 2)
    assert acc == 0.5
    assert checks.below("loss", loss, loss + 1e-9) is None
    assert checks.below("loss", math.log(10), math.log(10)) is not None
    assert checks.above("accuracy", 0.1, 0.1) is not None


def test_sample_count_off_by_one_fails():
    assert checks.sample_count(1024, 1024) is None
    assert checks.sample_count(1023, 1024) is not None


def test_set_difference_counts_worse_in_the_metric_direction():
    assert steady.worse_by(100.0, 90.0, "higher") == pytest.approx(0.1)
    assert steady.worse_by(100.0, 90.0, "lower") == pytest.approx(-0.1)
    st = steady.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert st["median"] == 3.0 and st["q1"] < st["q3"]
