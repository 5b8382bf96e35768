"""Benchmark of posthoc, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes over the workload's operations until S seconds have gone
(at least ``min_passes``), checks every result outside the timed region,
and prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in BENCHMARK.json.  Details, and the spans of a traced run, go to
``perfbench/out/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# perfbench/ is on the path: it is the script's directory
import reference
from checks import Checks
from ops import Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_INTERPRETERS = 3
# times `import posthoc` in a fresh interpreter, then runs the CLI on the
# remaining arguments; the reference loop runs before, between and after
SETUP_SNIPPET = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
import reference
clock = reference.Clock()
clock.sample(3)
start = time.perf_counter()
import posthoc
took = time.perf_counter() - start
clock.sample(3)
rc = 0
if sys.argv[2:]:
    import posthoc.cli
    rc = posthoc.cli.main(sys.argv[2:])
    clock.sample(3)
sys.stderr.write(json.dumps([took, clock.samples]) + "\\n")
sys.exit(rc)
"""


def _workloads():
    from wl_cli import CliReadme
    from wl_exact import ExactAlgebra
    from wl_gauss import GaussDesign
    from wl_mc import McPaths

    return {w.name: w for w in (CliReadme, GaussDesign, ExactAlgebra, McPaths)}


class Tally:
    """Operations attempted and failed, with the failing checks by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = {}
        self.checks = {}

    def record(self, op_name, taken, known_fault):
        names, failures = taken
        self.checks.setdefault(op_name, set()).update(names)
        self.attempted += 1
        if failures:
            self.failed += 1
            self.correct = self.correct and known_fault
            self.failures.setdefault(op_name, sorted(set(failures)))


def measure_setup(wl_cls, ctx, checks, tally):
    """Import times of fresh interpreters, each scaled by its own reference
    samples; on an in-process workload each interpreter then runs the
    workload's CLI subcommand, and its wall time, less the reference loop
    and scaled alike, is a CLI sample."""
    imports, walls = [], []
    for _ in range(SETUP_INTERPRETERS):
        argv = list(wl_cls.cli_argv or [])
        start = time.perf_counter()
        proc = subprocess.run([ctx.python, "-c", SETUP_SNIPPET, str(HERE),
                               *argv],
                              capture_output=True, text=True, env=ctx.env,
                              cwd=ctx.root)
        wall = time.perf_counter() - start
        took, samples = json.loads(proc.stderr.splitlines()[-1])
        scale = reference.scale(samples)
        imports.append(took * scale)
        walls.append((wall - sum(samples)) * scale)
        if argv:
            try:
                checks.equal(f"cli.{argv[0]}.exit_code", proc.returncode, 0)
                wl_cls.check_cli(checks, json.loads(proc.stdout)["report"])
            except (ValueError, KeyError) as exc:
                checks.failures.append(f"cli output unreadable: {exc!r}")
            tally.record(f"cli-process.{argv[0]}", checks.take(), False)
    return imports, walls


def run_passes(wl, ctx, seconds, clock, checks, tally):
    """Whole passes until ``seconds`` have gone; returns, scaled by each
    pass's reference speed, the per-pass timed seconds, every operation's
    (name, timed seconds), and the tracer's per-pass layer metrics."""
    tracer = ctx.tracer
    pass_s, op_s, layers = [], [], []
    start = time.perf_counter()
    op_id = 0
    while True:
        if tracer:
            tracer.reset_pass()
        total, first_sample, timed = 0.0, len(clock.samples), []
        ops = list(wl.ops(len(pass_s)))
        for op in ops:
            op_id += 1
            clock.sample(reference.samples_per_op(len(ops)))
            if tracer:
                tracer.begin_op(op_id, op.name, op.labels)
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # counted as a failed operation
                result, error = None, exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            total += dt
            timed.append((op.name, dt))
            if error is None:
                try:
                    op.check(result, checks)
                except Exception as exc:  # an unreadable result fails its op
                    checks.failures.append(f"check raised {exc!r}")
                taken = checks.take()
            else:
                taken = (set(), [f"raised {error!r}"])
            tally.record(op.name, taken, op.known_fault)
            del result  # before the next operation, for its peak memory
        clock.sample()
        scale = clock.scale(first_sample)
        pass_s.append(total * scale)
        op_s.extend((name, dt * scale) for name, dt in timed)
        if tracer:
            layers.append({k: v * scale if k.endswith("_s") else v
                           for k, v in tracer.pass_metrics().items()})
        if len(pass_s) >= wl.min_passes and time.perf_counter() - start >= seconds:
            return pass_s, op_s, layers


def _op_medians(op_s):
    by_name = {}
    for name, dt in op_s:
        by_name.setdefault(name, []).append(dt)
    return {name: statistics.median(v) for name, v in by_name.items()}


def layer_metrics(bench, layers, import_layers):
    """Median over passes of each per-layer metric BENCHMARK.json names;
    a layer the workload never calls reads 0."""
    out = {}
    for m in bench["per_layer"]:
        if m["name"] in import_layers:
            value = import_layers[m["name"]]
        else:
            # counts repeat exactly from pass to pass; times vary
            median = statistics.median if m["unit"] == "s" else statistics.median_low
            value = median(p.get(m["name"], 0) for p in layers)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", default="",
                        help="comma-separated check names to plant a fault in")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "posthoc" / "__init__.py").is_file():
        sys.stderr.write(f"posthoc sources not found under {ROOT / 'src'}\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = _workloads()
    if args.workload not in workloads:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads)}\n")
        return 2
    wl_cls = workloads[args.workload]

    out_dir = HERE / "out"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "EVALID_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    ctx = Context(args.seed, ROOT, tmp, sys.executable, env)
    checks = Checks(filter(None, args.plant.split(",")))
    tally = Tally()
    clock = reference.Clock(wl_cls.reference)
    # one core for the benchmark and its children, so that the reference
    # loop runs where the measured work runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if not args.trace:
            imports, setup_walls = measure_setup(wl_cls, ctx, checks, tally)
        import posthoc.cli  # noqa: F401  (every module, before tracing)

        if args.trace:
            from tracing import Tracer, import_layers

            ctx.tracer = Tracer()
            around = reference.Clock()
            around.sample(3)
            imported = import_layers(ctx.python, env, ROOT)
            around.sample(3)
            imported = {k: v * around.scale() for k, v in imported.items()}
            ctx.tracer.instrument()
        wl = wl_cls(ctx)
        try:
            pass_s, op_s, layers = run_passes(wl, ctx, args.seconds, clock,
                                              checks, tally)
        finally:
            if ctx.tracer:
                ctx.tracer.restore()
        if args.trace:
            metrics = layer_metrics(bench, layers, imported)
            ctx.tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            processes = getattr(wl, "ops_are_processes", False)
            rss_kb = (wl.peak_rss_kb if processes else
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            metrics = {
                "setup_s": statistics.median(imports),
                "pass_s": statistics.median(pass_s),
                "cli_wall_s.p50": statistics.median(
                    [dt for _, dt in op_s] if processes else setup_walls),
                "peak_rss_mb": rss_kb / 1024,
            }
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    details = {**result, "workload": args.workload, "seed": args.seed,
               "trace": args.trace, "passes": len(pass_s), "pass_s": pass_s,
               "reference_s": clock.samples,
               "op_s": _op_medians(op_s),
               "failures": tally.failures,
               "checks": {op: sorted(v) for op, v in tally.checks.items()},
               "planted": sorted(checks.planted)}
    suffix = "-plant" if checks.planted else ""
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     f"{suffix}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
