"""The reference loops that every reported time is scaled by.

The host's speed drifts by about 20% over tens of seconds (other tenants
share its cores), and every time a run measures drifts with it.  A fixed
loop, timed next to the measured work in the same process or on the same
core, tracks that drift: a time is multiplied by ``scale`` of the loop
times around it, so that it reads in seconds of a host that runs the loop
in its nominal time (about its median on the machine the figures in
README.md come from).  Interpreted Python work is scaled by a pure-Python
loop; memory-bound numpy work, which the host slows differently, by a
numpy pass over a 32 MB array.
"""
import math
import statistics
import time

PYTHON_STEPS = 100_000
NUMPY_VALUES = 4_000_000
SAMPLES_PER_PASS = 20


def sample_python() -> float:
    """Wall time of one run of the pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(PYTHON_STEPS):
        acc += i * i % 7
    return time.perf_counter() - start


def sample_numpy() -> float:
    """Wall time of one cumulative sum over a fresh 32 MB array."""
    import numpy as np

    values = np.ones(NUMPY_VALUES)
    start = time.perf_counter()
    np.cumsum(values, out=values)
    return time.perf_counter() - start


# kind -> (sampler, nominal seconds)
KINDS = {"python": (sample_python, 0.012), "numpy": (sample_numpy, 0.020)}


def scale(samples, kind="python") -> float:
    """Nominal time of ``kind`` over the median of its ``samples``."""
    return KINDS[kind][1] / statistics.median(samples)


class Clock:
    """Reference samples of one kind, taken as a run goes."""

    def __init__(self, kind="python"):
        self.kind = kind
        self.samples = []

    def sample(self, times=1):
        sampler = KINDS[self.kind][0]
        for _ in range(times):
            self.samples.append(sampler())

    def scale(self, since=0):
        """The scale of the samples from ``since`` on."""
        return scale(self.samples[since:], self.kind)


def samples_per_op(n_ops):
    """Samples to take before each of ``n_ops`` operations so that a pass
    has about SAMPLES_PER_PASS of them."""
    return math.ceil(SAMPLES_PER_PASS / n_ops)
