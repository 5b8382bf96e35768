"""What a workload hands the runner: operations and the run context."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Op:
    """One timed call (or batch of calls) into the program.

    ``run`` is timed; ``check(result, checks)`` runs outside the timed
    region.  ``known_fault`` marks an operation that fails today because of
    a named program fault: its failure is counted but keeps ``correct``.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], None]
    labels: dict = field(default_factory=dict)
    known_fault: bool = False


@dataclass
class Context:
    seed: int
    root: Any          # checkout root (pathlib.Path)
    tmp: Any           # scratch directory inside the checkout, removed at exit
    python: str
    env: dict          # environment for posthoc child processes
    tracer: Any = None
