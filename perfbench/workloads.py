"""The benchmark's workloads: checked-in scenario specs, timed end to end.

Every workload runs whole *rounds*.  A training round compiles its
:class:`~repro.spec.ScenarioSpec` through the same path as
``repro run --spec`` (``compile_scenario`` and the registry-wired trainer
build), then times ``trainer.train()`` apart from that set-up and checks the
trained model.  A ``sim-scaling`` round executes the compiled plans of its
two timing-only specs.  A run repeats rounds until its time is up and
reports medians over the rounds after the first (warm-up) round.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import checks
import host

SPECS = Path(__file__).resolve().parent / "specs"

#: a run always times at least this many rounds after its warm-up round
MIN_ROUNDS = 3

Metrics = Dict[str, Tuple[float, str]]


def load(name: str, seed: int, backend: Optional[str] = None):
    """The checked-in spec ``name``; a training spec gets its data and
    trainer seeds from ``seed`` and runs on ``backend`` (None: sim)."""
    from repro.spec import load_spec

    spec = load_spec(SPECS / f"{name}.json")
    if spec.mode == "custom":
        spec = replace(
            spec,
            problem_args={**spec.problem_args, "seed": seed},
            config={**spec.config, "seed": seed},
            backend=backend,
        )
    return spec


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of the largest process so far (this one or a child)."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


@dataclass
class Round:
    setup_s: float
    train_s: float
    cpu_s: float
    samples: int
    steal: Optional[float]  # host CPU-steal share while training


@dataclass
class Outcome:
    """What a run hands back to ``run.py``."""

    metrics: Metrics
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)    # failed checks
    failures: List[str] = field(default_factory=list)  # operations that raised
    detail: Dict[str, object] = field(default_factory=dict)


def timed(setup: Callable[[], object], work: Callable[[object], Tuple[int, object]]):
    """Time ``setup()`` apart from ``work(prepared)``.

    ``work`` returns the samples it processed and its output; ``timed``
    returns the round, what ``setup`` prepared, and that output.
    """
    t0 = time.perf_counter()
    prepared = setup()
    t1 = time.perf_counter()
    c0, ticks = cpu_seconds(), host.cpu_ticks()
    samples, output = work(prepared)
    t2 = time.perf_counter()
    c1, steal = cpu_seconds(), host.steal_share(ticks, host.cpu_ticks())
    return (Round(t1 - t0, t2 - t1, c1 - c0, samples, steal),
            prepared, output)


def measure(seconds: float, one_round: Callable[[], Round], errors: List[str]) -> Outcome:
    """Run rounds for ``seconds`` after a warm-up round (and at least
    ``MIN_ROUNDS``); report the end-to-end metrics over the timed rounds."""
    rounds: List[Round] = []
    raised: List[str] = []
    start: Optional[float] = None
    while start is None or time.perf_counter() - start < seconds or len(rounds) <= MIN_ROUNDS:
        # the last round's trainer is freed only by the cyclic collector;
        # collect it here, untimed, so every round starts as a fresh process
        # would (CHANGES.md, FOUND)
        gc.collect()
        try:
            rounds.append(one_round())
        except Exception:  # a failed operation, counted and reported
            raised.append(traceback.format_exc())
            if len(raised) > MIN_ROUNDS:
                break
        if start is None:
            start = time.perf_counter()  # the clock starts after warm-up
    timed_rounds = rounds[1:] or rounds
    metrics: Metrics = {}
    if timed_rounds:
        metrics = {
            "samples_per_s": (statistics.median(
                r.samples / r.train_s for r in timed_rounds), "1/s"),
            "cpu_ms_per_sample": (statistics.median(
                1e3 * r.cpu_s / r.samples for r in timed_rounds), "ms"),
            "setup_s": (statistics.median(r.setup_s for r in timed_rounds), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    return Outcome(
        metrics=metrics,
        attempted=len(rounds) + len(raised),
        failed=len(raised),
        errors=errors,
        failures=raised,
        detail={"rounds": [vars(r) for r in rounds]},
    )


# --------------------------------------------------------------------------
# training workloads
# --------------------------------------------------------------------------


def build_trainer(spec):
    """Compile ``spec`` as ``repro run --spec`` does and build its trainer."""
    from repro.spec import compile_scenario
    from repro.spec.compile import _build_trainer

    return _build_trainer(compile_scenario(spec).spec)


def train(trainer):
    """The training call; returns the collective sample count and result."""
    result = trainer.train()
    return int(result.records[-1].samples), result


def held_out(trainer, params: np.ndarray) -> Tuple[float, float]:
    """Test-set loss and accuracy of ``params``, scored by the benchmark."""
    wl = trainer.workloads[0]
    wl.flat.set_data(params)
    test = trainer.problem.test_set
    xb, yb = test.batch(np.arange(len(test)))
    wl.model.eval()
    try:
        logits = wl.model.forward(xb)
    finally:
        wl.model.train()
        wl.model.release_buffers()
    return checks.cross_entropy(logits, yb)


def run_checks(spec, trainer, result, reference: Optional[np.ndarray]) -> List[str]:
    """The checks every training call passes: the sample budget, finite
    parameters, mp/net SASGD parameters equal to the sim's, and one applied
    push per push a Downpour learner made."""
    cfg = spec.config
    params = np.array(trainer.workloads[0].flat.data, copy=True)
    found = [
        checks.sample_count(int(result.records[-1].samples),
                            cfg["epochs"] * trainer.problem.n_train),
        checks.all_finite(params),
    ]
    if spec.algorithm == "sasgd" and reference is not None:
        found.append(checks.params_match(reference, params))
    if spec.algorithm == "downpour":
        found.append(checks.pushes_match(
            int(result.extras["pushes_applied"]),
            checks.expected_pushes(cfg["epochs"], trainer.problem.n_train,
                                   cfg["p"], cfg["batch_size"], spec.options["T"])))
    return [f for f in found if f]


@dataclass
class Training:
    """A training workload: one spec on one backend, with its checks."""

    spec_name: str
    backend: Optional[str]

    def run(self, seed: int, seconds: float) -> Outcome:
        spec = load(self.spec_name, seed, self.backend)
        reference = initial_loss = None
        if spec.problem == "nlcf" and spec.algorithm == "sasgd":
            # the sim run of the same spec: what mp and net must reproduce
            sim = build_trainer(replace(spec, backend=None))
            x0 = sim.workloads[0].flat.copy_data()
            initial_loss = held_out(sim, x0)[0]
            sim.workloads[0].flat.set_data(x0)
            train(sim)
            reference = np.array(sim.workloads[0].flat.data, copy=True)
        errors: List[str] = []

        def one_round() -> Round:
            rnd, trainer, result = timed(lambda: build_trainer(spec), train)
            errors.extend(run_checks(spec, trainer, result, reference))
            if initial_loss is not None or spec.problem == "cifar":
                loss, acc = held_out(trainer, trainer.workloads[0].flat.data.copy())
                found = ([checks.below("held-out loss", loss, initial_loss)]
                         if initial_loss is not None else
                         [checks.below("held-out loss", loss, math.log(10)),
                          checks.above("held-out accuracy", acc, 0.1)])
                errors.extend(f for f in found if f)
            return rnd

        return measure(seconds, one_round, errors)


# --------------------------------------------------------------------------
# the timing-simulator workload
# --------------------------------------------------------------------------


@contextlib.contextmanager
def capture_scaling() -> Iterator[Dict[str, object]]:
    """Record what the scaling family does inside ``plan.execute()``.

    Every ``simulate_epoch_time`` call is kept with its arguments, so bytes
    can be checked exactly (the family's result rows round them), and the
    time spent building each cell's simulated machine is summed, so it
    counts as set-up rather than simulation.
    """
    import repro.harness.experiments as experiments

    simulate = experiments.simulate_epoch_time
    build_machine = experiments._scaling_machine
    seen: Dict[str, object] = {"calls": [], "machine_s": 0.0}

    def recording(algorithm, workload, **kwargs):
        result = simulate(algorithm, workload, **kwargs)
        seen["calls"].append((dict(kwargs, algorithm=algorithm, workload=workload), result))
        return result

    def timed_machine(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return build_machine(*args, **kwargs)
        finally:
            seen["machine_s"] += time.perf_counter() - t0

    experiments.simulate_epoch_time = recording
    experiments._scaling_machine = timed_machine
    try:
        yield seen
    finally:
        experiments.simulate_epoch_time = simulate
        experiments._scaling_machine = build_machine


def verify_scaling(calls) -> List[str]:
    """SASGD ring bytes equal the closed form; at the largest p SASGD's
    simulated epoch is shorter than Downpour's (the paper's conclusion)."""
    found: List[Optional[str]] = []
    epoch_s: Dict[Tuple[str, int], float] = {}
    for args, result in calls:
        p = args["p"]
        epoch_s[args["algorithm"], p] = result.epoch_seconds
        if args["algorithm"] == "sasgd" and args.get("allreduce_algorithm") == "ring":
            wl = args["workload"]
            k = math.ceil(wl.steps_per_learner_per_epoch(p) / args["T"])
            found.append(checks.bytes_match(
                result.total_bytes_per_epoch,
                checks.ring_sasgd_bytes(k, p, wl.param_bytes) * args["epochs"],
            ))
    if not any(a.get("allreduce_algorithm") == "ring" for a, _ in calls):
        found.append("no ring cell ran")
    top = max(p for _, p in epoch_s)
    found.append(checks.below(f"SASGD epoch at p={top} (s)",
                              epoch_s["sasgd", top], epoch_s["downpour", top]))
    return [f for f in found if f]


@dataclass
class Scaling:
    """Timing-only scaling cells: engine and fabric, no gradient math.

    The cells draw nothing from the seed (the scaling family fixes its
    machine seeds), so every seed simulates the same cells.
    """

    spec_names: Tuple[str, ...]

    def run(self, seed: int, seconds: float) -> Outcome:
        from repro.spec import compile_scenario

        specs = [load(name, seed) for name in self.spec_names]
        errors: List[str] = []

        def execute(plans):
            with capture_scaling() as seen:
                for plan in plans:
                    plan.execute()
            return sum(args["workload"].n_train * args["epochs"]
                       for args, _ in seen["calls"]), seen

        def one_round() -> Round:
            rnd, _, seen = timed(lambda: [compile_scenario(s) for s in specs], execute)
            errors.extend(verify_scaling(seen["calls"]))
            # building each cell's machine is set-up, not simulation
            return replace(rnd, setup_s=rnd.setup_s + seen["machine_s"],
                           train_s=rnd.train_s - seen["machine_s"])

        return measure(seconds, one_round, errors)


WORKLOADS = {
    "cifar-sasgd": Training("cifar-sasgd", None),
    "nlcf-sasgd-mp": Training("nlcf-sasgd", "mp"),
    "nlcf-sasgd-net": Training("nlcf-sasgd", "net"),
    "nlcf-downpour-mp": Training("nlcf-downpour", "mp"),
    "nlcf-downpour-net": Training("nlcf-downpour", "net"),
    "sim-scaling": Scaling(("scaling-ring", "scaling-fattree")),
}
