#!/usr/bin/env python3
"""capsched benchmark: three CLI workloads, end-to-end metrics, a traced run.

Run from the root of a checkout that contains ``src/capsched``:

    python3 perfbench/run.py --workload large-greedy --seed 1 --seconds 40 --trace 0

With ``--trace 0`` every command is a child process (``python3 -m capsched``,
one at a time: a closed loop with a single client). With ``--trace 1`` the
library is imported in-process and its public functions are wrapped to give
per-layer numbers. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report. See README.md in this directory.
"""

from __future__ import annotations

import os

# Single-threaded numeric libraries keep run-to-run spread low on a small machine;
# set before numpy is imported here or in any child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import Callable  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
from workloads import WORKLOADS, Ctx, Step  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
REFERENCE_SEED = 0
MIN_PASSES = 2
TRACED_PASSES = 2
IMPORT_SAMPLES = 5
REF_KERNEL = os.path.join(HERE, "refkernel.py")
# Bounded timings are given in seconds at the host speed where one run of the
# reference kernel takes this long (see README.md).
REFERENCE_S = 0.25

# Bounded end-to-end metrics: present on every workload (BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "schedule_s": "s",
    "verify_s": "s",
    "links_per_s": "links/s",
    "peak_rss_mb": "MB",
    "slots_total": "count",
}
# Report-only metrics: each exists on one workload only, or is 0 on a clean run.
REPORT_ONLY = {
    "refine_s": "s",
    "oracle_s": "s",
    "cells_per_s": "cells/s",
    "cells_per_s_2w": "cells/s",
    "failed_share": "share",
}

_COMMON_LAYERS = [
    "core.affectance_matrix.s",
    "core.affectance_matrix.calls",
    "core.affectance_matrix.cells",
    "core.affectance_matrix.bytes",
    "core.Instance.calls",
    "core.is_feasible.s",
    "core.is_feasible.calls",
    "core.is_feasible.pairs",
    "core.affectance.s",
    "core.affectance.calls",
    "core.partition_report.s",
    "topogen.generate.s",
    "topogen.generate.calls",
    "io.load_instance.s",
    "io.load_instance.bytes",
    "io.save_schedule.s",
    "cli.gen.self_s",
    "cli.schedule.self_s",
    "cli.verify.self_s",
]
_GREEDY_LAYERS = [
    "schedulers.schedule_repeated.s",
    "schedulers.schedule_repeated.self_s",
    "schedulers.schedule_repeated.rounds",
    "schedulers.single_shot_greedy.calls",
    "schedulers.single_shot_guarded.s",
    "schedulers.single_shot_guarded.refused",
]
# The per-layer metrics each workload exercises; printed as "<workload>.<metric>".
LAYERS = {
    "large-greedy": _COMMON_LAYERS + _GREEDY_LAYERS + ["schedulers.schedule_nonuniform.s"],
    "verify-refine": _COMMON_LAYERS
    + [
        "core.p_signal_violation.s",
        "core.is_q_dispersed.s",
        "core.is_q_dispersed.pairs",
        "schedulers.first_fit_baseline.s",
        "schedulers.strengthen.s",
        "schedulers.strengthen.blowup",
        "schedulers.disperse.s",
        "schedulers.disperse.blowup",
        "cli.refine.self_s",
    ],
    "small-exact": _COMMON_LAYERS
    + _GREEDY_LAYERS
    + [
        "schedulers.first_fit_baseline.s",
        "experiment.run_experiment.s",
        "experiment.cells",
        "oracles.min_schedule.s",
        "oracles.min_schedule.masks",
        "oracles.max_feasible_subset.s",
        "oracles.max_p_signal_subset.s",
        "abstract.correspondence_check.s",
        "abstract.correspondence_check.subsets",
        "cli.experiment.self_s",
        "cli.oracle.self_s",
        "cli.reduce-graph.self_s",
    ],
}
GLOBAL_LAYERS = {"cli.import_s": "s", "trace.overhead_s": "s"}
COUNT_SUFFIXES = ("calls", "cells", "pairs", "masks", "subsets", "rounds", "refused", "bytes")


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last == "bytes":
        return "B"
    if last == "blowup":
        return "ratio"
    return "count"


def per_layer_names() -> dict[str, str]:
    names = {f"{wl}.{m}": layer_unit(m) for wl in WORKLOADS for m in LAYERS[wl]}
    names.update(GLOBAL_LAYERS)
    return names


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    n = len(samples)
    for p in (99.9, 99, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000)[round(p * 10) - 1]
            return f"p{p:g}={cut:.6g}"
    return f"max={max(samples):.6g}"


class Bench:
    """Runs steps, checks outputs, and keeps the counts a result line reports."""

    def __init__(self, root: str, rundir: str, env: dict[str, str]):
        self.root = root
        self.rundir = rundir
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hashes: dict[str, dict[str, str]] = {}
        self.peak_rss_kb = 0

    def subprocess_exec(self, argv: tuple[str, ...], cwd: str) -> tuple[float, int, str, str]:
        """Run one capsched command as a child; wall time, exit code, stdout, stderr."""
        out_path = os.path.join(cwd, ".stdout")
        err_path = os.path.join(cwd, ".stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "capsched", *argv], cwd=cwd, env=self.env, stdout=out, stderr=err
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
            return wall, proc.returncode, out.read(), err.read()

    def run_pass(
        self,
        workload: str,
        steps: list[Step],
        execute: Callable[[tuple[str, ...], str], tuple[float, int, str, str]],
        before: Callable[[], None] | None = None,
    ) -> tuple[dict[str, float], int]:
        """One pass over the steps; per-command wall times and the slots emitted."""
        cwd = os.path.join(self.rundir, workload)
        os.makedirs(cwd, exist_ok=True)
        ctx = Ctx(cwd)
        seen = self.hashes.setdefault(workload, {})
        times: dict[str, float] = {}
        for step in steps:
            if step.kind == "derive":
                step.action(cwd)
                continue
            if before is not None:
                before()
            wall, rc, stdout, stderr = execute(step.argv, cwd)
            times[step.label] = wall
            self.attempted += 1
            errors = []
            if rc != 0:
                errors.append(f"exit code {rc}: {stderr.strip()[-300:]}")
            else:
                try:
                    errors += step.check(ctx, stdout)
                    for name in step.outputs:
                        digest = check.sha256(ctx.path(name))
                        if seen.setdefault(name, digest) != digest:
                            errors.append(f"{name}: bytes differ from an earlier pass of this run")
                except Exception as exc:  # a broken output must not stop the benchmark
                    errors.append(f"check raised {type(exc).__name__}: {exc}")
            if errors:
                self.failed += 1
                self.errors += [f"{workload} / {step.label}: {e}" for e in errors]
        return times, ctx.slots_total

    def reference(self) -> float:
        """Wall time of one reference-kernel child."""
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, REF_KERNEL], cwd=self.rundir, env=self.env, stdout=subprocess.DEVNULL, check=True
        )
        return time.perf_counter() - start

    def mismatch(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def compare_hashes_across_runs(self, key: str, observed: dict[str, str]) -> None:
        """Output hashes must match what an earlier run in this checkout stored under ``key``."""
        path = os.path.join(self.root, WORK_DIR, "hashes.json")
        stored = check.read_json(path) if os.path.exists(path) else {}
        before = stored.get(key)
        if before is None:
            stored[key] = observed
            tmp = f"{path}.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(stored, fh, sort_keys=True, indent=1)
            os.replace(tmp, path)
            return
        for name in sorted(set(before) | set(observed)):
            if before.get(name) != observed.get(name):
                self.mismatch(f"{key}: sha256 of {name} differs from an earlier run")


def pass_metrics(steps: list[Step], times: dict[str, float]) -> dict[str, float]:
    by_kind: dict[str, float] = {}
    for step in steps:
        if step.label in times:
            by_kind[step.kind] = by_kind.get(step.kind, 0.0) + times[step.label]
    links = sum(s.links for s in steps if s.kind == "schedule")
    out = {
        "setup_s": by_kind["gen"],
        "pipeline_s": sum(times.values()),
        "schedule_s": by_kind["schedule"],
        "verify_s": by_kind["verify"],
        "links_per_s": links / (by_kind["schedule"] + by_kind["verify"]),
    }
    for kind in ("refine", "oracle"):
        if kind in by_kind:
            out[f"{kind}_s"] = by_kind[kind]
    for step in steps:
        if step.kind == "experiment" and step.label in times:
            name = "cells_per_s" if step.workers == 1 else f"cells_per_s_{step.workers}w"
            out[name] = step.cells / times[step.label]
    return out


def untraced(bench: Bench, workload: str, seed: int, seconds: float, tiny: bool) -> dict[str, float]:
    steps = WORKLOADS[workload](seed, tiny)
    walls: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    refs: list[float] = []
    slots: list[int] = []

    def before() -> None:
        refs.append(bench.reference())

    start = time.perf_counter()
    last = 0.0
    while len(slots) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        times, slots_total = bench.run_pass(workload, steps, bench.subprocess_exec, before)
        last = time.perf_counter() - began
        slots.append(slots_total)
        # times keeps command order, and one kernel run precedes each command
        for (label, wall), ref in zip(times.items(), refs[-len(times):]):
            walls.setdefault(label, []).append(wall)
            scaled.setdefault(label, []).append(wall / ref * REFERENCE_S)
    if len(set(slots)) != 1:
        bench.mismatch(f"slot totals differ between passes: {slots}")

    # Bounded timings are reference-scaled (see README.md): each command's wall
    # time over the kernel's just before it, median over the passes.
    metrics = pass_metrics(steps, {label: statistics.median(v) for label, v in scaled.items()})
    per_pass = [pass_metrics(steps, {label: v[k] for label, v in walls.items()}) for k in range(len(slots))]
    for name, value in metrics.items():
        values = [p[name] for p in per_pass]
        unit = END_TO_END.get(name) or REPORT_ONLY[name]
        print(
            f"metric {name} {value:.6g} {unit} reference-scaled, median of {len(values)} passes; "
            f"wall time median {statistics.median(values):.6g}, {tail(values)}"
        )
    metrics["peak_rss_mb"] = bench.peak_rss_kb / 1024.0
    metrics["slots_total"] = float(slots[0])
    print(f"metric peak_rss_mb {metrics['peak_rss_mb']:.6g} MB max child ru_maxrss over {bench.attempted} commands")
    print(f"metric slots_total {slots[0]} count slots in every emitted schedule of one pass")
    print(f"reference kernel min={min(refs):.6g}s median={statistics.median(refs):.6g}s n={len(refs)} {tail(refs)}")
    for label, v in walls.items():
        print(f"command {label} min={min(v):.6g}s median={statistics.median(v):.6g}s n={len(v)} {tail(v)}")
    return metrics


def inprocess_exec(argv: tuple[str, ...], cwd: str) -> tuple[float, int, str, str]:
    from capsched import cli

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        wall = time.perf_counter() - start
    finally:
        os.chdir(here)
    return wall, rc, out.getvalue(), err.getvalue()


def traced(bench: Bench, workload: str, seed: int, tiny: bool) -> dict[str, float]:
    """Per-layer numbers: every workload's sequence, traced in-process twice."""
    from tracing import Tracer

    sys.path.insert(0, os.path.join(bench.root, "src"))
    import capsched.cli  # noqa: F401  (loads every module the tracer patches)

    # the sweep runs with one worker so that its spans stay in this process
    sequences = {wl: [s for s in build(seed, tiny) if s.workers <= 1] for wl, build in WORKLOADS.items()}

    import_s = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import capsched"], env=bench.env, cwd=bench.rundir, check=True)
        import_s.append(time.perf_counter() - start)

    def pipeline(wl: str, before=None) -> float:
        return sum(bench.run_pass(wl, sequences[wl], inprocess_exec, before)[0].values())

    plain = [pipeline(workload)]
    tracer = Tracer()
    traced_times = []
    command = itertools.count()
    tracer.install()
    try:
        for p in range(TRACED_PASSES):
            for wl in WORKLOADS:
                elapsed = pipeline(wl, lambda: tracer.begin_command(next(command), f"{p}:{wl}"))
                if wl == workload:
                    traced_times.append(elapsed)
    finally:
        tracer.uninstall()
    plain.append(pipeline(workload))

    metrics: dict[str, float] = {}
    for wl in WORKLOADS:
        passes = [tracer.layer_metrics(f"{p}:{wl}") for p in range(TRACED_PASSES)]
        for p in passes:
            p["core.affectance_matrix.bytes"] = 8 * p.get("core.affectance_matrix.cells", 0)
            p["experiment.cells"] = p.get("experiment.run_experiment.cells", 0)
            for op in ("strengthen", "disperse"):
                if p.get(f"schedulers.{op}.slots_in"):
                    p[f"schedulers.{op}.blowup"] = p[f"schedulers.{op}.slots_out"] / p[f"schedulers.{op}.slots_in"]
        for name in LAYERS[wl]:
            values = [p.get(name, 0.0) for p in passes]
            if name.rsplit(".", 1)[-1] in COUNT_SUFFIXES:
                if len(set(values)) != 1:
                    bench.mismatch(f"{wl}.{name}: operation count differs between traced passes: {values}")
            metrics[f"{wl}.{name}"] = statistics.median(values)
    metrics["cli.import_s"] = statistics.median(import_s)
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain)
    units = per_layer_names()
    for name, value in metrics.items():
        print(f"layer {name} {value:.6g} {units[name]}")
    share = metrics["trace.overhead_s"] / statistics.median(plain)
    print(
        f"trace overhead on {workload}: traced {statistics.median(traced_times):.6g}s vs untraced "
        f"{statistics.median(plain):.6g}s in-process ({share:+.1%}); {len(tracer.spans)} spans"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "capsched", "__init__.py")):
        print(f"error: no capsched package under {src}; run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, **THREAD_ENV)
    rundir = os.path.join(root, WORK_DIR, f"run-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        # first import compiles the bytecode; also proves which package the children load
        probe = subprocess.run(
            [sys.executable, "-c", "import capsched; print(capsched.__file__)"],
            env=env, cwd=rundir, capture_output=True, text=True,
        )
        if probe.returncode != 0 or not probe.stdout.strip().startswith(src + os.sep):
            print(f"error: cannot import capsched from {src}: {probe.stderr.strip()}", file=sys.stderr)
            return 2
        bench = Bench(root, rundir, env)
        if args.trace:
            metrics = traced(bench, args.workload, args.seed, args.tiny)
        else:
            metrics = untraced(bench, args.workload, args.seed, args.seconds, args.tiny)
            scale = "tiny" if args.tiny else "full"
            key = f"{args.workload}:seed={args.seed}:{scale}"
            bench.compare_hashes_across_runs(key, bench.hashes[args.workload])
            if args.seed == REFERENCE_SEED and not args.tiny:
                ref = check.read_json(os.path.join(HERE, "reference.json"))[args.workload]
                if ref["hashes"] != bench.hashes[args.workload] or ref["slots_total"] != metrics["slots_total"]:
                    bench.mismatch(f"{key}: outputs differ from perfbench/reference.json")
            metrics["failed_share"] = min(bench.failed, bench.attempted) / bench.attempted
            print(f"metric failed_share {metrics['failed_share']:.6g} share failed / attempted commands")
            for name, digest in sorted(bench.hashes[args.workload].items()):
                print(f"output {name} sha256={digest}")
        for message in bench.errors[:20]:
            print(f"error: {message}", file=sys.stderr)
        wanted = per_layer_names() if args.trace else END_TO_END
        result = {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": min(bench.failed, bench.attempted),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
