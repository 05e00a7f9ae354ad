"""The host a run measured on.

The record (nproc, BLAS libraries and their thread counts, load average,
CPU-steal share) is printed beside the metrics, never as one, so that a
drifting host can be told apart from a slower program.  Everything is read
from ``/proc`` and from the BLAS library numpy has loaded; nothing is set.
"""

from __future__ import annotations

import ctypes
import os
from typing import Dict, List, Optional


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (user, nice, ..., steal)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return []
    return [int(v) for v in fields[1:]]


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    """Share of all CPU ticks between two samples that the hypervisor stole."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    # guest time is already folded into user time; count the first 8 columns
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


def _loaded_blas() -> List[str]:
    """Paths of the BLAS libraries mapped into this process."""
    paths: List[str] = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if ".so" in name and ("openblas" in name or "mkl_rt" in name) \
                        and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def blas_info() -> List[Dict[str, object]]:
    """Each BLAS library loaded (numpy's, scipy's) and the thread count it
    reports."""
    import numpy  # noqa: F401  (loads the BLAS library)

    return [_describe(path) for path in _loaded_blas()]


def _describe(path: str) -> Dict[str, object]:
    info: Dict[str, object] = {"library": os.path.basename(path)}
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return info
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", "_64", ""):
            for name, key, restype in (
                (f"{prefix}_get_num_threads{suffix}", "threads", ctypes.c_int),
                (f"{prefix}_get_config{suffix}", "config", ctypes.c_char_p),
            ):
                fn = getattr(lib, name, None)
                if fn is not None and key not in info:
                    fn.restype = restype
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
    return info


def host_record(ticks_before: List[int]) -> Dict[str, object]:
    """nproc, BLAS, load average and CPU-steal share since ``ticks_before``."""
    try:
        load = [round(v, 2) for v in os.getloadavg()]
    except OSError:
        load = None
    steal = steal_share(ticks_before, cpu_ticks())
    return {
        "nproc": os.cpu_count(),
        "blas": blas_info(),
        "loadavg": load,
        "steal_share": None if steal is None else round(steal, 4),
    }
