"""Seeded experiment sweeps: run algorithms over topology families, verify
every schedule, and emit CSV rows plus per-point aggregates.

The main results table is fully deterministic for a given config. Wall times
are measured and kept on the rows, but written only to an opt-in sidecar
file so reruns stay byte-identical.
"""

from __future__ import annotations

import math
import operator
import os
import statistics
import time
from typing import Any, Sequence

from .core import (
    DEFAULT_MODEL_PARAMS,
    MODEL_PARAM_NAMES,
    Instance,
    ModelParams,
    Record,
    Schedule,
    SchedulingError,
    VerificationError,
    verify_schedule,
)
from .io import _number, _refuse_unknown, _shown, _typed, read_json
from .schedulers import ALGORITHMS
from .topogen import TopologySpec, generate

SWEEPABLE = ("n", "alpha", "r_cluster", "l_max")


class ExperimentVerificationError(VerificationError):
    """A produced schedule failed verification; carries the offending pair."""

    def __init__(self, message: str, instance: Instance, schedule: Schedule | None):
        super().__init__(message)
        self.instance = instance
        self.schedule = schedule

    def __reduce__(self):
        # default exception reduction drops the keyword state; needed so the
        # error survives the trip back from a worker process
        return (type(self), (self.args[0], self.instance, self.schedule))


def _refuse_repeats(items: Sequence, what: str) -> None:
    """Refuse an item listed twice (3 and 3.0 are one value): each cell runs once."""
    seen = set()
    for item in items:
        if item in seen:
            raise ValueError(f"{what} lists {_shown(item)} twice")
        seen.add(item)


class ExperimentConfig(Record):
    """A full sweep description.

    The topology field is a template: its seed is ignored and replaced by
    base_seed + repetition index, so all algorithms and sweep points see
    the same instance stream per repetition. ``sweep`` is a tuple of
    (name, values) axes; ``output`` and ``timings`` are paths or None.
    """

    __slots__ = (
        "topology", "params", "sweep", "algorithms", "repetitions", "base_seed", "output", "timings"
    )
    _defaults = {
        "params": DEFAULT_MODEL_PARAMS, "sweep": (), "algorithms": ("A-repeated",),
        "repetitions": 1, "base_seed": 0, "output": None, "timings": None,
    }

    def __post_init__(self) -> None:
        for name, values in self.sweep:
            if name not in SWEEPABLE:
                raise ValueError(
                    f"cannot sweep {_shown(name)}; supported: {', '.join(SWEEPABLE)}"
                )
            if not values:
                raise ValueError(f"sweep over {name!r} has no values")
            _refuse_repeats(values, f"sweep over {name!r}")
        _refuse_repeats([name for name, _ in self.sweep], "sweep")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {_shown(algo)}; supported: "
                    f"{', '.join(sorted(ALGORITHMS))}"
                )
        _refuse_repeats(self.algorithms, "algorithms")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not (0 <= self.base_seed < 2**64):
            raise ValueError(f"base_seed must fit in 64 bits, got {self.base_seed}")


class ResultRow(Record):
    """One verified algorithm run on one generated instance."""

    __slots__ = (
        "algorithm", "family", "n", "alpha", "beta", "l_max", "r_cluster", "seed", "slot_count",
        "wall_time_ms", "verified",
    )


class AggregateRow(Record):
    """Mean slot count and normal-approximation 95% CI for one sweep cell."""

    __slots__ = (
        "algorithm", "family", "n", "alpha", "l_max", "r_cluster", "mean_slots", "ci95", "reps"
    )


# a sweep cell: the fields an AggregateRow shares with the ResultRows it aggregates
_CELL = tuple(name for name in AggregateRow.__slots__ if name in ResultRow.__slots__)
_cell = operator.attrgetter(*_CELL)


def _path(obj: dict, key: str) -> str | None:
    return None if obj.get(key) is None else _typed(obj[key], str, key)


def _sweep_axis(pair: Any) -> tuple[str, tuple[float, ...]]:
    """One ``[name, values]`` sweep entry; swept n values are JSON integers."""
    if len(pair) != 2:
        raise ValueError(f"a sweep entry must be [name, values], got {_shown(pair)}")
    name = _typed(pair[0], str, "a sweep name")
    values = _typed(pair[1], list, f"sweep values of {_shown(name)}")
    if name == "n":
        return name, tuple(_typed(v, int, "a swept n") for v in values)
    return name, tuple(_number(v, name) for v in values)


def config_from_obj(obj: Any) -> ExperimentConfig:
    """Parse the JSON form of a config, rejecting unknown, misplaced or mistyped values.

    Nothing is coerced: counts and seeds are JSON integers, parameters JSON
    numbers and paths JSON strings (or null for the default).
    """
    _typed(obj, dict, "experiment config")
    _refuse_unknown(obj, ExperimentConfig.__slots__, "config keys")
    if "topology" not in obj:
        raise ValueError("experiment config missing key 'topology'")
    topo_obj = _typed(obj["topology"], dict, "topology")
    if "seed" in topo_obj:
        raise ValueError(
            "topology template must not carry a seed; seeds come from "
            "base_seed + repetition"
        )
    _refuse_unknown(topo_obj, TopologySpec.__slots__, "topology keys")
    for key in ("family", "n"):
        if key not in topo_obj:
            raise ValueError(f"topology missing key {key!r}")
    clusters = topo_obj.get("n_clusters")
    topology = TopologySpec(
        family=_typed(topo_obj["family"], str, "family"),
        n=_typed(topo_obj["n"], int, "n"),
        seed=0,
        n_clusters=None if clusters is None else _typed(clusters, int, "n_clusters"),
        **{
            key: _number(topo_obj[key], key)
            for key in ("field_size", "l_max", "r_cluster")
            if key in topo_obj
        },
    )
    params = DEFAULT_MODEL_PARAMS
    if "params" in obj:
        params_obj = _typed(obj["params"], dict, "params")
        _refuse_unknown(params_obj, MODEL_PARAM_NAMES, "params keys")
        params = DEFAULT_MODEL_PARAMS.replace(**{key: _number(v, key) for key, v in params_obj.items()})
    pairs = [_typed(pair, list, "a sweep entry") for pair in _typed(obj.get("sweep", []), list, "sweep")]
    algorithms = _typed(obj.get("algorithms", ["A-repeated"]), list, "algorithms")
    return ExperimentConfig(
        topology=topology,
        params=params,
        sweep=tuple(_sweep_axis(pair) for pair in pairs),
        algorithms=tuple(_typed(algo, str, "an algorithm") for algo in algorithms),
        repetitions=_typed(obj.get("repetitions", 1), int, "repetitions"),
        base_seed=_typed(obj.get("base_seed", 0), int, "base_seed"),
        output=_path(obj, "output"),
        timings=_path(obj, "timings"),
    )


def load_experiment_config(path: str | os.PathLike) -> ExperimentConfig:
    return config_from_obj(read_json(path))


def sweep_points(config: ExperimentConfig) -> list[dict[str, float]]:
    """Cross product of the swept values, in the order they were listed."""
    points: list[dict[str, float]] = [{}]
    for name, values in config.sweep:
        points = [dict(p, **{name: v}) for p in points for v in values]
    return points


def _apply_point(
    config: ExperimentConfig, point: dict[str, float]
) -> tuple[TopologySpec, ModelParams]:
    spec, params = config.topology, config.params
    for name, value in point.items():
        if name in MODEL_PARAM_NAMES:
            params = params.replace(**{name: value})
        elif name == "n":
            spec = spec.replace(n=int(value))
        else:
            spec = spec.replace(**{name: float(value)})
    return spec, params


def _run_cell(instance: Instance, spec: TopologySpec, params: ModelParams, algo: str) -> ResultRow:
    """Schedule and verify one experiment cell: ``algo`` on the instance of ``spec``.

    ``wall_time_ms`` times the algorithm alone. Every algorithm returns an
    unverified schedule, so every cell passes the emission gate
    ``verify_schedule`` once; a failing cell carries its schedule.
    """
    start = time.perf_counter()
    try:
        schedule = ALGORITHMS[algo](instance)
    except SchedulingError as exc:
        raise ExperimentVerificationError(
            f"{algo} failed on seed {spec.seed}: {exc}",
            instance=instance,
            schedule=None,
        ) from exc
    elapsed_ms = (time.perf_counter() - start) * 1e3
    try:
        verify_schedule(instance, schedule)
    except VerificationError as exc:
        raise ExperimentVerificationError(
            f"{algo} on seed {spec.seed}: {exc}",
            instance=instance,
            schedule=schedule,
        ) from exc
    return ResultRow(
        algorithm=algo,
        family=spec.family,
        n=spec.n,
        alpha=params.alpha,
        beta=params.beta,
        l_max=spec.l_max,
        r_cluster=spec.r_cluster,
        seed=spec.seed,
        slot_count=schedule.slot_count,
        wall_time_ms=elapsed_ms,
        verified=True,
    )


def _run_instance(
    spec: TopologySpec, params: ModelParams, algorithms: Sequence[str]
) -> list[ResultRow]:
    """Generate the instance of ``spec`` once and run every algorithm's cell on it.

    Cells run in ``algorithms`` order and the first failing one raises.
    The arguments are small and picklable: a worker process generates the
    instance itself.
    """
    instance = generate(spec, params)
    return [_run_cell(instance, spec, params, algo) for algo in algorithms]


def _run_pooled(
    instances: list[tuple[TopologySpec, ModelParams]], algorithms: Sequence[str], workers: int
) -> list[ResultRow]:
    """``_run_instance`` of every instance in a process pool, rows in ``instances`` order.

    One task per instance, largest n first, so that the longest tasks do
    not start last. The results are read in ``instances`` order, so the
    failure raised is that of the first failing instance in that order, as
    in one process.
    """
    import concurrent.futures  # only here: a one-worker sweep never pays its import

    largest_first = sorted(range(len(instances)), key=lambda k: -instances[k][0].n)
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(instances))) as pool:
        futures = {k: pool.submit(_run_instance, *instances[k], algorithms) for k in largest_first}
        return [row for k in range(len(instances)) for row in futures[k].result()]


def run_experiment(
    config: ExperimentConfig, workers: int = 1
) -> tuple[list[ResultRow], list[AggregateRow]]:
    """Run every (sweep point x repetition x algorithm) cell and verify it.

    Each (sweep point, repetition) instance is generated once and every
    algorithm runs on it. Instances are independent; with workers > 1 they
    run in a process pool. Rows come back canonically sorted either way, so
    the output does not depend on execution order.

    Raises:
        ExperimentVerificationError: on a schedule that fails verification,
            carrying the instance and schedule for dumping. With several
            failing cells it is the first in cell order (sweep points as
            listed, then repetitions, then algorithms as configured),
            whatever the worker count.
    """
    instances: list[tuple[TopologySpec, ModelParams]] = []
    for point in sweep_points(config):
        spec, params = _apply_point(config, point)
        for rep in range(config.repetitions):
            instances.append((spec.replace(seed=config.base_seed + rep), params))
    if workers > 1 and len(instances) > 1:
        rows = _run_pooled(instances, config.algorithms, workers)
    else:
        rows = [row for inst in instances for row in _run_instance(*inst, config.algorithms)]
    rows.sort(key=lambda row: (_cell(row), row.seed))
    return rows, aggregate_rows(rows)


def aggregate_rows(rows: Sequence[ResultRow]) -> list[AggregateRow]:
    """Group rows by sweep cell and compute mean slot count and 95% CI."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault(_cell(row), []).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        counts = [r.slot_count for r in members]
        mean = sum(counts) / len(counts)
        if len(counts) > 1:
            ci = 1.96 * statistics.stdev(counts) / math.sqrt(len(counts))
        else:
            ci = 0.0
        cell = dict(zip(_CELL, key))
        out.append(AggregateRow(**cell, mean_slots=mean, ci95=ci, reps=len(counts)))
    return out


# --- writers -------------------------------------------------------------------


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


RESULT_COLUMNS = tuple(name for name in ResultRow.__slots__ if name != "wall_time_ms")

TIMING_COLUMNS = RESULT_COLUMNS[:-2] + ("wall_time_ms",)


def write_results_csv(
    rows: Sequence[ResultRow], path: str | os.PathLike, columns: Sequence[str] = RESULT_COLUMNS
) -> None:
    """One CSV line per row over ``columns``.

    The default is the deterministic results table (wall time deliberately
    excluded); ``TIMING_COLUMNS`` gives the wall-time sidecar, which varies
    across runs.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_csv_value(getattr(row, col)) for col in columns) + "\n")


def write_aggregates(rows: Sequence[AggregateRow], path: str | os.PathLike) -> None:
    """Plot-ready aggregate table (gnuplot-style commented header)."""
    columns = AggregateRow.__slots__
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + " ".join(columns) + "\n")
        for row in rows:
            fh.write(" ".join(_csv_value(getattr(row, col)) for col in columns) + "\n")
