"""The traced run: the per-layer ladder and the traced training matrix.

``run.py --trace 1`` lands here, whatever the workload: every traced run
reports the same per-layer metrics, so that each row can be compared across
runs.  Levels, from the bottom up, each reporting how much of its parent it
explains:

* ``nn``      per-layer forward/backward ms and GFLOP/s of both models at the
              workload shapes (FLOPs from ``Module.layer_summary``, backward
              counted as twice the forward), whole-model forward/backward, and
              the SASGD optimiser step on the flat vector;
* ``data``    sampler plus ``Dataset.batch`` per minibatch;
* ``algos``   ``LearnerWorkload.compute_gradient`` and one SASGD interval of T
              local steps without communication;
* ``runtime`` / ``net``  mp and net allreduce and PS push+pull round trips by
              payload, through the public ``Collective`` / PS-client API
              against a process the benchmark forks, plus tensor-frame
              throughput over a socket pair;
* ``sim`` / ``comm``  engine events/s, per-message fabric rate and vectorised
              wave rate;
* ``trace`` / ``count``  each training scenario on sim, mp and net for one
              epoch, untraced then traced (``tracing.py``): per-backend shares
              of wall time in compute, optimiser, collective or PS and the
              remainder, the tracing overhead, and exact counts.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import socket
import statistics
import sys
import threading
import time
from dataclasses import replace
from typing import Callable, Dict, List, Tuple

import numpy as np

import tracing
import workloads

Metrics = Dict[str, Tuple[float, str]]

#: transport payloads: a 4 KiB..8 MiB sweep plus the two model sizes
PAYLOADS = {"4KiB": 4 << 10, "64KiB": 64 << 10, "1MiB": 1 << 20, "8MiB": 8 << 20}
#: round trips per payload point; model-size points take enough for a p90
SWEEP_REPS = 40
LARGE_REPS = 10  # the 8 MiB point
MODEL_REPS = 100
TAIL = 90
#: untimed calls before every timed series
WARMUP = 3
#: a healthy transport call here takes well under a second; one that stalls
#: this long has failed.  The net ring allreduce fails so at 8 MiB on every
#: run: once a chunk (payload / p) outgrows the loopback socket buffers, both
#: ranks block in send (CHANGES.md, FOUND).  A failed point is counted as a
#: failed operation and reports no row.
TRANSPORT_TIMEOUT_S = 5.0


_T0 = time.perf_counter()


def _log(what: str) -> None:
    print(f"perfbench: {what} done at {time.perf_counter() - _T0:.1f} s",
          file=sys.stderr, flush=True)


def drive(coroutine):
    """Run one of the runtime's blocking coroutines to its return value."""
    try:
        while True:
            next(coroutine)
    except StopIteration as stop:
        return stop.value


def sample(fn: Callable[[], object], reps: int) -> List[float]:
    """Seconds per call of ``fn`` over ``reps`` calls after ``WARMUP``."""
    for _ in range(WARMUP):
        fn()
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def ms(seconds: List[float]) -> float:
    return 1e3 * statistics.median(seconds)


def tail_ms(seconds: List[float]) -> float:
    return 1e3 * float(np.percentile(seconds, TAIL))


# --------------------------------------------------------------------------
# nn, data, algos
# --------------------------------------------------------------------------


def compute_ladder(key: str, spec, out: Metrics) -> int:
    """nn → data → algos rows for one model at its workload shapes; returns
    the model's size in bytes."""
    from repro.algos.base import LearnerWorkload
    from repro.core.sasgd import SASGDConfig, SASGDLocalState
    from repro.spec.registry import PROBLEMS

    cfg = spec.config
    batch, T = cfg["batch_size"], spec.options["T"]
    problem = PROBLEMS.get(spec.problem)(**spec.problem_args)
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg["seed"]).spawn(3)]
    wl = LearnerWorkload(problem, batch, *streams)
    model, criterion = wl.model, wl.criterion
    idx = wl.next_batch()
    xb, yb = problem.train_set.batch(idx)
    reps = 30 if spec.problem == "cifar" else 300

    # nn: each layer on the activations the model itself produces
    acts = [xb]
    for layer in model.layers:
        acts.append(layer.forward(acts[-1]))
    summary = model.layer_summary(xb.shape[1:])
    layers_s = 0.0
    for i, (layer, row) in enumerate(zip(model.layers, summary)):
        grad_out = np.ones_like(acts[i + 1])
        fwd = sample(lambda: layer.forward(acts[i]), reps)
        bwd: List[float] = []
        for _ in range(WARMUP + reps):
            layer.forward(acts[i])
            t0 = time.perf_counter()
            layer.backward(grad_out)
            bwd.append(time.perf_counter() - t0)
        bwd = bwd[WARMUP:]
        layers_s += statistics.median(fwd) + statistics.median(bwd)
        if row["params"] == 0:
            continue  # parameter-free layers count only towards the total
        name = f"nn.{key}.{i}-{row['layer']}"
        flops = 3.0 * row["flops"] * batch
        out[f"{name}.fwd_ms"] = (ms(fwd), "ms")
        out[f"{name}.bwd_ms"] = (ms(bwd), "ms")
        out[f"{name}.gflops"] = (
            flops / (statistics.median(fwd) + statistics.median(bwd)) / 1e9, "GFLOP/s")

    def forward():
        return criterion.forward(model.forward(xb), yb)

    fwd = sample(forward, reps)
    bwd = []
    for _ in range(WARMUP + reps):
        forward()
        t0 = time.perf_counter()
        model.backward(criterion.backward())
        bwd.append(time.perf_counter() - t0)
    bwd = bwd[WARMUP:]
    model_s = statistics.median(fwd) + statistics.median(bwd)
    out[f"nn.{key}.model.fwd_ms"] = (ms(fwd), "ms")
    out[f"nn.{key}.model.bwd_ms"] = (ms(bwd), "ms")
    out[f"nn.{key}.layers_explain"] = (layers_s / model_s, "ratio")

    # data: the sampler plus the dataset gather, per minibatch
    fetch = sample(lambda: problem.train_set.batch(wl.next_batch()), reps)
    out[f"data.{key}.batch_ms"] = (ms(fetch), "ms")

    # algos: one gradient, on the minibatch the nn rows used (NLC-F sentences
    # differ in length, so only the same batch makes the levels comparable)
    grad = sample(lambda: wl.compute_gradient(idx), reps)
    out[f"algos.{key}.compute_gradient_ms"] = (ms(grad), "ms")
    out[f"algos.{key}.gradient_explain"] = (
        (model_s + statistics.median(fetch)) / statistics.median(grad), "ratio")

    # the optimiser step, on a spare replica: repeating one step walks the
    # parameters far from anything training reaches
    spare = LearnerWorkload(problem, batch, *streams)
    spare.compute_gradient(idx)
    sasgd = SASGDConfig(T=10 ** 9, p=cfg["p"], gamma=cfg["lr"], gamma_p=cfg["lr"])
    state = SASGDLocalState(spare.flat, sasgd)
    state.begin_interval()
    step = sample(state.local_step, reps)
    out[f"nn.{key}.optimizer_step_ms"] = (ms(step), "ms")

    # one communication-free SASGD interval: T gradients and local steps
    local = SASGDLocalState(wl.flat, replace(sasgd, T=T))

    def interval():
        local.begin_interval()
        for _ in range(T):
            wl.compute_gradient(idx)
            local.local_step()

    inter = sample(interval, max(10, reps // T))
    out[f"algos.{key}.interval_ms"] = (ms(inter), "ms")
    out[f"algos.{key}.interval_explain"] = (
        T * (statistics.median(grad) + statistics.median(step))
        / statistics.median(inter), "ratio")
    return int(wl.flat.nbytes)


# --------------------------------------------------------------------------
# runtime (shared memory) and net (TCP) transports
# --------------------------------------------------------------------------


def _fork(target: Callable[[], None]):
    proc = multiprocessing.get_context("fork").Process(target=target, daemon=True)
    proc.start()
    return proc


def _reap(proc) -> None:
    proc.join(timeout=30)
    if proc.is_alive():
        proc.terminate()
        proc.join()


def _allreduce_with_peer(coll, nbytes: int, reps: int, peer_done=lambda: None) -> List[float]:
    """Rank 0 here, rank 1 in a forked peer; seconds per allreduce."""
    n = nbytes // 4

    def peer() -> None:
        theirs = np.ones(n, np.float32)
        for _ in range(WARMUP + reps):
            drive(coll.allreduce(1, theirs))
        peer_done()

    proc = _fork(peer)
    mine = np.ones(n, np.float32)
    try:
        return sample(lambda: drive(coll.allreduce(0, mine)), reps)
    finally:
        _reap(proc)


def _push_pull(ps, nbytes: int, reps: int) -> List[float]:
    """Seconds per push + pull of rank 0 against a started server."""
    client = ps.client(0)
    grad = np.full(nbytes // 4, 1e-3, np.float32)
    return sample(lambda: (drive(client.push(grad)), drive(client.pull())), reps)


def mp_allreduce(nbytes: int, reps: int) -> List[float]:
    from repro.runtime.mp_backend import MPCollective

    coll = MPCollective(multiprocessing.get_context("fork"), 2, timeout=TRANSPORT_TIMEOUT_S)
    coll.allocate(nbytes // 4, np.float32)
    try:
        return _allreduce_with_peer(coll, nbytes, reps)
    finally:
        coll.teardown()


def mp_push_pull(nbytes: int, reps: int) -> List[float]:
    from repro.runtime.mp_backend import MPParameterServer

    ps = MPParameterServer(multiprocessing.get_context("fork"), 1, nbytes // 4, 1,
                           0.01, np.float32, TRANSPORT_TIMEOUT_S)
    ps.start()
    try:
        return _push_pull(ps, nbytes, reps)
    finally:
        ps.shutdown()


def net_allreduce(nbytes: int, reps: int) -> List[float]:
    from repro.net.backend import NetCollective
    from repro.net.cluster import allocate_loopback, close_all

    spec, listeners = allocate_loopback(p=2)
    coll = NetCollective(p=2, timeout=TRANSPORT_TIMEOUT_S)
    coll.install(spec, {0: listeners["worker0"], 1: listeners["worker1"]})
    try:
        return _allreduce_with_peer(coll, nbytes, reps, coll.teardown_rank)
    finally:
        coll.teardown_rank()
        close_all(listeners)


def net_push_pull(nbytes: int, reps: int) -> List[float]:
    from repro.net.backend import NetParameterServer
    from repro.net.cluster import allocate_loopback, close_all

    spec, listeners = allocate_loopback(p=0, n_shards=1)
    ps = NetParameterServer(multiprocessing.get_context("fork"), p=1, size=nbytes // 4,
                            n_shards=1, learning_rate=0.01, dtype=np.float32,
                            timeout=TRANSPORT_TIMEOUT_S)
    ps.start(spec.ps, listeners)
    try:
        return _push_pull(ps, nbytes, reps)
    finally:
        ps.shutdown()
        close_all(listeners)


def frame_throughput(nbytes: int, frames: int) -> Tuple[float, float]:
    """MB/s spent in ``send_tensor`` and in ``recv().tensor()`` for tensor
    frames over a loopback TCP pair (receiver on a thread)."""
    from repro.net.frames import DATA, Conn, bind_listener, listener_addr, parse_addr

    listener = bind_listener("127.0.0.1:0")
    a = socket.create_connection(parse_addr(listener_addr(listener)))
    b, _ = listener.accept()
    listener.close()
    sender, receiver = Conn(a, "bench-a"), Conn(b, "bench-b")
    array = np.ones(nbytes // 4, np.float32)
    recv_s = [0.0]

    def drain() -> None:
        for _ in range(frames):
            t0 = time.perf_counter()
            receiver.recv().tensor()
            recv_s[0] += time.perf_counter() - t0

    thread = threading.Thread(target=drain)
    thread.start()
    send_s = 0.0
    for _ in range(frames):
        t0 = time.perf_counter()
        sender.send_tensor(DATA, array)
        send_s += time.perf_counter() - t0
    thread.join()
    sender.close()
    receiver.close()
    mb = frames * array.nbytes / 1e6
    return mb / send_s, mb / recv_s[0]


def transport_ladder(model_bytes: Dict[str, int], out: Metrics, failures: List[str]) -> None:
    points = dict(PAYLOADS)
    points.update(model_bytes)
    for prefix, allreduce, push_pull in (
        ("runtime", mp_allreduce, mp_push_pull),
        ("net", net_allreduce, net_push_pull),
    ):
        for label, nbytes in points.items():
            is_model = label in model_bytes
            reps = MODEL_REPS if is_model else SWEEP_REPS if nbytes < (8 << 20) else LARGE_REPS
            for what, fn in (("allreduce", allreduce), ("push_pull", push_pull)):
                try:
                    seconds = fn(nbytes, reps)
                except Exception as exc:  # a failed operation, counted
                    failures.append(f"{prefix}.{what}.{label}: {exc}")
                    continue
                out[f"{prefix}.{what}.{label}.ms"] = (ms(seconds), "ms")
                if is_model:
                    out[f"{prefix}.{what}.{label}.p{TAIL}_ms"] = (tail_ms(seconds), "ms")
    send, recv = frame_throughput(model_bytes["nlcf_model"], 400)
    out["net.frame.send_MBps"] = (send, "MB/s")
    out["net.frame.recv_MBps"] = (recv, "MB/s")


# --------------------------------------------------------------------------
# sim engine and fabrics
# --------------------------------------------------------------------------


def simulator_ladder(out: Metrics) -> None:
    from repro.cluster.topology import build_binary_tree_topology
    from repro.comm.fabric import Fabric
    from repro.comm.fastfabric import FastFabric
    from repro.sim.engine import Delay, Engine

    procs, rounds = 512, 25

    def cohort() -> None:
        eng = Engine()

        def proc():
            for _ in range(rounds):
                yield Delay(1.0)

        for _ in range(procs):
            eng.spawn(proc())
        eng.run()

    events = procs * (rounds + 1)
    out["sim.engine.events_per_s"] = (events / statistics.median(sample(cohort, 15)), "1/s")

    n_leaves, waves = 64, 4
    topo = build_binary_tree_topology(n_leaves=n_leaves)
    gpus = [f"gpu{i}" for i in range(n_leaves)]

    def per_message() -> None:
        eng = Engine()
        fab = Fabric(eng, topo, contention=True)
        for i, node in enumerate(gpus):
            fab.attach(f"l{i}", node)
        fab.attach("srv", "host")
        for w in range(waves):
            for i in range(n_leaves):
                eng.spawn(fab.lookup(f"l{i}").send("srv", ("t", w, i), None, nbytes=1e6))
            eng.run()

    messages = n_leaves * waves
    out["comm.fabric.messages_per_s"] = (
        messages / statistics.median(sample(per_message, 15)), "1/s")
    pairs = [(node, "host") for node in gpus]
    fast = FastFabric(Fabric(Engine(), topo, contention=True))
    fast.plan(pairs)
    wave = sample(lambda: fast.wave_span(pairs, 1e6), 200)
    out["comm.fastfabric.waves_per_s"] = (1.0 / statistics.median(wave), "1/s")


# --------------------------------------------------------------------------
# the traced training matrix
# --------------------------------------------------------------------------

SCENARIOS = ("nlcf-sasgd", "nlcf-downpour", "cifar-sasgd")
BACKENDS = (None, "mp", "net")


def _train(spec, traced: bool):
    """One training call, timed, with the layer wrappers when ``traced``."""
    trainer = workloads.build_trainer(spec)
    with tracing.traced(trainer) if traced else contextlib.nullcontext() as spans:
        t0 = time.perf_counter()
        result = trainer.train()
        wall = time.perf_counter() - t0
    return trainer, result, wall, spans


def traced_matrix(seed: int, out: Metrics, errors: List[str]) -> Dict[str, List[float]]:
    """Each scenario for one epoch on sim, mp and net; returns the wall
    seconds of every training call, by scenario and backend.

    On mp and net, untraced and traced calls alternate (two pairs for the
    NLC-F scenarios, one for CIFAR); the overhead compares their summed wall
    times and the shares are averaged over the traced calls.
    """
    walls: Dict[str, List[float]] = {}
    for scenario in SCENARIOS:
        reference = None
        for backend in BACKENDS:
            spec = workloads.load(scenario, seed, backend)
            spec = replace(spec, config={**spec.config, "epochs": 1})
            where = f"{scenario}.{backend or 'sim'}"
            if backend is None:
                trainer, result, wall, _ = _train(spec, traced=False)
                walls[where] = [wall]
                errors.extend(f"{where}: {f}" for f in workloads.run_checks(spec, trainer, result, None))
                # the sim predicts: its virtual clock is Fig. 1's model
                out[f"trace.{where}.comm_share"] = (
                    float(result.extras["comm_fraction"]), "ratio")
                reference = np.array(trainer.workloads[0].flat.data, copy=True)
            else:
                pairs = 2 if spec.problem == "nlcf" else 1
                plain_s = traced_s = 0.0
                share: Dict[str, float] = {}
                for _ in range(pairs):
                    for traced in (False, True):
                        trainer, result, wall, spans = _train(spec, traced)
                        walls.setdefault(where, []).append(wall)
                        errors.extend(f"{where}: {f}" for f in
                                      workloads.run_checks(spec, trainer, result, reference))
                        if not traced:
                            plain_s += wall
                            continue
                        traced_s += wall
                        for kind, value in tracing.shares(spans, wall).items():
                            share[kind] = share.get(kind, 0.0) + value / pairs
                kinds = ("compute", "comm", "other")
                if spec.algorithm == "sasgd":
                    kinds += ("optimizer",)
                    out[f"count.{where}.allreduce_per_sample"] = (
                        spans.count("allreduce") / result.records[-1].samples, "count")
                for kind in kinds:
                    out[f"trace.{where}.{kind}_share"] = (share[kind], "ratio")
                out[f"trace.{where}.overhead"] = (traced_s / plain_s - 1.0, "ratio")
            samples = int(result.records[-1].samples)
            if spec.problem == "nlcf":
                out[f"count.{where}.bytes_per_sample"] = (
                    float(result.extras["total_bytes"]) / samples, "B")
            if spec.algorithm == "downpour":
                out[f"count.{where}.pushes_applied"] = (
                    int(result.extras["pushes_applied"]), "count")
    return walls


def run(workload: str, seed: int, seconds: float) -> workloads.Outcome:
    """The traced run; ``workload`` picks nothing, every run is the same."""
    out: Metrics = {}
    errors: List[str] = []
    failures: List[str] = []
    model_bytes = {f"{key}_model": compute_ladder(key, workloads.load(f"{key}-sasgd", seed), out)
                   for key in ("cifar", "nlcf")}
    _log("compute ladder")
    transport_ladder(model_bytes, out, failures)
    _log("transport ladder")
    simulator_ladder(out)
    _log("simulator ladder")
    walls = traced_matrix(seed, out, errors)
    _log("traced matrix")
    # one operation per measured row or failed transport point, plus each
    # traced-matrix training call
    attempted = len(out) + len(failures) + sum(len(w) for w in walls.values())
    return workloads.Outcome(metrics=out, attempted=attempted, failed=len(failures),
                             errors=errors, failures=failures,
                             detail={"training_wall_s": walls})
