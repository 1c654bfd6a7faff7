"""Host speed, sampled with a fixed reference kernel between passes.

On a shared host the vCPUs run slower or faster as other tenants load the
machine, by up to 2x over minutes.  The benchmark runs this kernel, which
never changes, in the gaps between its passes and set-up probes, and scales
the times of each to a host on which one kernel call takes ``REFERENCE_S``.
The kernel is a 32-row MLP step in plain numpy, the same mix of small
matmuls and elementwise ops the workloads spend their time in, so both slow
down together; a change to the program moves the scaled times and leaves
the kernel alone.
"""

import time

import numpy as np

REFERENCE_S = 0.010          # one kernel call on the nominal host
KERNEL_STEPS = 200
GAP_S = 0.25                 # kernel time per gap


def kernel():
    """Seconds one call of the reference kernel takes now."""
    rng = np.random.default_rng(0)
    w1 = rng.normal(0.0, 0.4, size=(100, 12))
    w2 = rng.normal(0.0, 0.1, size=(1, 100))
    x = rng.random((32, 12))
    y = (rng.random(32) < 0.5).astype(np.float64)
    m = np.zeros_like(w1)
    v = np.zeros_like(w1)
    t0 = time.perf_counter()
    for _ in range(KERNEL_STEPS):
        h = np.maximum(x @ w1.T, 0.0)
        p = 1.0 / (1.0 + np.exp(-(h @ w2.T).ravel()))
        dh = (((p - y) / len(y))[:, None] @ w2) * (h > 0)
        g = dh.T @ x
        m *= 0.9
        m += 0.1 * g
        v *= 0.999
        v += 0.001 * (g * g)
        w1 -= 1e-3 * m / (np.sqrt(v) + 1e-8)
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples taken in gaps; scale factors for the work between."""

    def __init__(self):
        self.samples = []
        self._last = None

    def gap(self):
        """Run the kernel for about ``GAP_S`` and return its mean call time."""
        calls = []
        while sum(calls) < GAP_S:
            calls.append(kernel())
        self.samples.extend(calls)
        self._last = float(np.mean(calls))
        return self._last

    def around(self, work):
        """Run ``work()`` between two gaps; return (its result, the factor
        that scales its times to the nominal host)."""
        before = self._last if self._last is not None else self.gap()
        result = work()
        after = self.gap()
        return result, REFERENCE_S / ((before + after) / 2.0)

    def mean_call_ms(self):
        return float(np.mean(self.samples)) * 1e3
