"""Reference kernel that normalizes timings to the machine's current speed.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent within a minute; the drift slows all code alike. Timing a
fixed kernel between the measured runs and scaling their times by
``NOMINAL_S / (mean kernel time)`` cancels it: the reported seconds are those
the machine would have taken when the kernel took ``NOMINAL_S``. Measured
(raw) times are printed next to them.

The kernel mixes the program's kinds of work (a fresh Philox generator and
1e4 or 1e5 uniforms per step, small complex matrices and ``eigvalsh``,
``.17g`` formatting, a short ``solve_ivp``) without importing the program,
so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.random import Generator, Philox
from scipy.integrate import solve_ivp

#: the kernel's time, in seconds, at which reported times equal measured ones
NOMINAL_S = 0.013

_KEY = np.array([7, 9], dtype=np.uint64)
_GENERATOR = np.array([[-0.3, 1j], [1j, -0.1]])
_T_EVAL = np.linspace(0.0, 5.0, 50)


def kernel() -> float:
    acc = 0.0
    # N=1e4 draws stay in cache; N=1e5 draws stream through memory
    for step, members in enumerate([10_000] * 30 + [100_000] * 3):
        gen = Generator(Philox(counter=np.array([0, 0, 0, step], dtype=np.uint64), key=_KEY))
        acc += np.count_nonzero(gen.random(members) < 0.01)
    eye = np.eye(4, dtype=complex) * 0.25
    for i in range(150):
        mat = np.array([[0.5, 0.1j], [-0.1j, 0.5]]) + i * 1e-9
        acc += float(np.all(np.isfinite(mat.view(float))))
        acc += float(np.linalg.eigvalsh(eye)[0])
        acc += len(",".join(f"{v:.17g}" for v in (0.1 * i, 0.2, 0.3, 0.4)))
    solution = solve_ivp(
        lambda _t, y: _GENERATOR @ y, (0.0, 5.0), np.array([1.0, 0.0], dtype=complex), t_eval=_T_EVAL, rtol=1e-8
    )
    return acc + float(solution.y.real.sum())


def calibrate(budget_s: float) -> tuple[int, float]:
    """Run the kernel at least once and until ``budget_s`` is spent; return (runs, seconds)."""
    count, spent = 0, 0.0
    while count == 0 or spent < budget_s:
        started = time.perf_counter()
        kernel()
        spent += time.perf_counter() - started
        count += 1
    return count, spent
