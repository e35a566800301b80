"""A fixed reference workload that runs no mubqkd code.

The shared machine this benchmark was written on changes speed by up to
1.7x, in phases that last from seconds to minutes.  Timing this reference
around each iteration, and dividing, cancels most of that drift.
"""

from __future__ import annotations

import time

import numpy as np

_CHUNK = 1 << 16  # rounds per chunk, as in mubqkd.protocol
_ROWS = 40_000


def _rows() -> np.ndarray:
    rows = np.zeros(
        _ROWS, dtype=[("round", np.int64), ("basis", np.uint8), ("elem", np.uint8), ("click", np.bool_)]
    )
    rows["round"] = np.arange(_ROWS)
    rows["basis"] = rows["round"] % 4
    rows["elem"] = rows["round"] % 3
    return rows


def reference_s() -> float:
    """Seconds for one pass of a fixed mix of array and interpreter work.

    About half of it draws and indexes arrays the size of one simulation
    chunk, like the round kernel.  The other half formats structured-array
    rows and joins digits in Python loops, like the CLI log and sift.
    """
    rows = _rows()
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    cum = np.cumsum([0.7, 0.1, 0.1, 0.1])
    for _ in range(20):
        u = rng.random((8, _CHUNK))
        flat = np.searchsorted(cum, u[2]) * 8 + np.minimum((u[3] * 8).astype(np.int64), 7)
        hit = u[0] < 0.5
        np.bincount(flat[hit], minlength=64)
        np.where(hit, u[6], u[7]).sum()
    "\n".join(f"{r['round']},{r['basis']},{r['elem']},{int(r['click'])}" for r in rows)
    "".join(str(int(e)) for e in rows["elem"])
    return time.perf_counter() - t0
