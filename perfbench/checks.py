"""Correctness checks with planted faults.

Every check has a name and a perturbation.  A run started with
``--plant NAME[,NAME...]`` perturbs the named checks' inputs before
judging them, which is how ``plant.py`` shows that each check can fail.
"""
from __future__ import annotations

import math
from fractions import Fraction


def _bump(x, tol):
    """A value just outside tolerance ``tol`` of ``x``."""
    if isinstance(x, (int, Fraction)) and tol == 0:
        return x + Fraction(1, 10**9)
    if isinstance(x, float) and math.isinf(x):
        return 0.0
    return x + 2 * tol + 1e-6 * max(1.0, abs(float(x)))


def _wrong(v):
    """``v`` with its first scalar changed."""
    if isinstance(v, str):
        return v + "?"
    if isinstance(v, (bool, type(None))):
        return not v
    if isinstance(v, (list, tuple)):
        return type(v)([_wrong(v[0]), *v[1:]])
    if isinstance(v, dict):
        first = next(iter(v))
        return {**v, first: _wrong(v[first])}
    if isinstance(v, (set, frozenset)):
        return type(v)([*v, object()])
    return _bump(v, 0)


class Checks:
    def __init__(self, planted=()):
        self.planted = set(planted)
        self.names = set()      # every check judged since the last take()
        self.failures = []

    def __call__(self, name, got, ok, perturb):
        """Judge ``ok(got)``; a planted check judges ``ok(perturb(got))``."""
        self.names.add(name)
        if name in self.planted:
            got = perturb(got)
        try:
            passed = bool(ok(got))
        except (ArithmeticError, LookupError, TypeError, ValueError):
            passed = False
        if not passed:
            self.failures.append(name)
        return passed

    def true(self, name, got):
        return self(name, got, lambda v: v is True, lambda v: not v)

    def equal(self, name, got, want):
        """Exact equality; the plant changes the first value inside ``got``."""
        return self(name, got, lambda v: v == want, _wrong)

    def near(self, name, got, want, tol):
        """|got - want| <= tol (both finite floats or exact numbers)."""
        return self(name, got, lambda v: abs(v - want) <= tol,
                    lambda v: _bump(v, tol))

    def rel(self, name, got, want, rtol):
        """|got - want| <= rtol * |want|."""
        tol = rtol * abs(float(want))
        return self(name, got, lambda v: abs(float(v) - float(want)) <= tol,
                    lambda v: _bump(float(v), tol))

    def take(self):
        """The names judged and the names failed since the last call."""
        names, failures = self.names, self.failures
        self.names, self.failures = set(), []
        return names, failures
