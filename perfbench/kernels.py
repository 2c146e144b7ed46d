"""Fringe-kernel microbenchmarks.

``count_rate`` and ``count_rate_curvature`` are timed on scalar calls
(microseconds per call) and on float64 arrays of two sizes (nanoseconds
per point).  ``SMALL`` points make 128 KiB per array, so the kernel's
temporaries stay in cache; ``LARGE`` points make 8 MiB per array, four
times a 2 MiB per-core L2 and 64 times ``SMALL``.  The reference box
reports a 300 MiB shared L3; arrays of four times that, with the
kernel's dozens of temporaries, would not fit in its 8 GiB of memory.

Bytes moved per point are computed, not measured: every elementwise
numpy operation in the kernel is counted as reading each array operand
and writing its result once, with no reuse from cache.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SMALL = 1 << 14
LARGE = 1 << 20
SCALAR_CALLS = 1000


class _Counted(np.ndarray):
    """Array that adds the bytes of every operation on it to ``moved``."""

    moved = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Counted) else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        _Counted.moved += sum(x.nbytes for x in plain if isinstance(x, np.ndarray)) \
            + out.nbytes
        return out.view(_Counted)

    def __array_function__(self, func, types, args, kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Counted) else x for x in args]
        out = func(*plain, **kwargs)
        _Counted.moved += sum(x.nbytes for x in plain if isinstance(x, np.ndarray)) \
            + out.nbytes
        return out.view(_Counted)


class _KeepSubclass:
    """Stands in for ``numpy`` in the kernel module while bytes are counted,
    so that ``np.asarray`` keeps the counting subclass."""

    asarray = staticmethod(np.asanyarray)

    def __getattr__(self, name):
        return getattr(np, name)


def _bytes_per_point(kernel, module, omega, tau, p) -> float:
    saved = module.np
    module.np = _KeepSubclass()
    _Counted.moved = 0
    try:
        kernel(omega.view(_Counted), tau.view(_Counted), p)
    finally:
        module.np = saved
    return _Counted.moved / omega.size


def _per_call(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(seed: int, smoke: bool = False) -> tuple[dict[str, float], dict]:
    """Kernel metrics plus a record of the sizes used."""
    import spinfringe as sf
    from spinfringe import fringe

    p = sf.ModelParams()
    w = 6.0 * p.sigma
    rng = np.random.default_rng(seed)
    small, large = (SMALL >> 4, LARGE >> 8) if smoke else (SMALL, LARGE)
    n_scalar = SCALAR_CALLS // 10 if smoke else SCALAR_CALLS

    def inputs(n):
        return rng.uniform(-w, w, n), rng.uniform(0.05, 1.5, n)

    metrics: dict[str, float] = {}
    for prefix, short, kernel in (("", "curvature", fringe.count_rate_curvature),
                                  ("count_rate_", "count_rate", fringe.count_rate)):
        om, ta = inputs(n_scalar)
        pairs = list(zip(om.tolist(), ta.tolist()))

        def scalar_batch():
            for o, t in pairs:
                kernel(o, t, p)

        metrics[f"fringe.{prefix}scalar_us_per_call"] = \
            _per_call(scalar_batch, 5) / n_scalar * 1e6
        for size, suffix, reps in ((small, "", 21), (large, "_large", 5)):
            om, ta = inputs(size)
            metrics[f"fringe.{prefix}array_ns_per_point{suffix}"] = \
                _per_call(lambda: kernel(om, ta, p), reps) / size * 1e9
        om, ta = inputs(1024)
        metrics[f"fringe.{short}_bytes_per_point_computed"] = \
            _bytes_per_point(kernel, fringe, om, ta, p)
    info = {"small_points": small, "large_points": large,
            "small_array_bytes": small * 8, "large_array_bytes": large * 8,
            "scalar_calls_per_batch": n_scalar}
    return metrics, info
