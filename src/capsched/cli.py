"""Command-line interface.

Subcommands: gen, schedule, verify, refine, experiment, oracle, reduce-graph.

Exit codes are a fixed contract: 0 success, 1 verification failure,
2 input error, 3 size limit exceeded.

Every schedule or oracle answer passes the slot verifier once before it
is written and the command exits 0: every schedule, whatever the
``--algo``, power mode or oracle, through the emission gate
``core.verify_schedule`` (a partition, and both routes: direct SINR and
affectance), since the schedulers return theirs unverified; an oracle slot
through ``core.is_feasible`` (at level p for psignal). All outputs are
deterministic for fixed inputs; wall times are written only on opt-in.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import math
import os
import sys

from .io import load_instance, load_schedule, save_instance, save_schedule, write_canonical
from .model import (
    DEFAULT_MODEL_PARAMS, MODEL_PARAM_NAMES, Instance, ModelParams, PartitionReport, PreconditionError,
    Schedule, SchedulingError, SizeLimitError, VerificationError, ceiling, partition_report,
)


def _lazy(name: str):
    """Module ``capsched.<name>``, registered to execute on its first attribute read.

    The stdlib's ``LazyLoader`` recipe, bound as a package attribute as
    ``import`` binds it; a module already imported is taken as it is.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# each executes on a command's first read: numpy with the first of the first five,
# which `gen` and a command refused on its arguments never read
abstract, core, experiment, oracles, schedulers, topogen = map(
    _lazy, ("abstract", "core", "experiment", "oracles", "schedulers", "topogen")
)


# each --algo's name in schedulers.ALGORITHMS
_ALGORITHM_NAMES = {"A": "A-repeated", "B": "B-repeated", "firstfit": "first-fit-baseline"}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _add_model_flags(sub: argparse.ArgumentParser, with_defaults: bool) -> None:
    """One flag per ModelParams field; None defaults mean "keep the file's values"."""
    flags = {"--alpha": "alpha", "--beta": "beta", "--noise": "noise", "--power": "default_power"}
    for flag, name in flags.items():
        default = getattr(DEFAULT_MODEL_PARAMS, name) if with_defaults else None
        sub.add_argument(flag, type=float, dest=name, metavar=flag[2:].upper(), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsched",
        description="Generate, schedule, verify, refine, and benchmark "
        "SINR link-scheduling instances.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate an instance file")
    gen.add_argument("--family", choices=("random", "clustered"), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--field", type=float, default=1000.0, help="square field side")
    gen.add_argument("--lmax", type=float, default=20.0, help="maximum link length")
    gen.add_argument("--clusters", type=int, default=None, help="cluster count (default n/10)")
    gen.add_argument("--rc", type=float, default=10.0, help="cluster radius")
    gen.add_argument("--out", default="instance.json")
    _add_model_flags(gen, with_defaults=True)
    gen.set_defaults(func=cmd_gen)

    sched = subs.add_parser("schedule", help="schedule an instance file")
    sched.add_argument("instance")
    sched.add_argument("--algo", choices=tuple(_ALGORITHM_NAMES), default="A")
    sched.add_argument("--out", default="schedule.json")
    _add_model_flags(sched, with_defaults=False)
    sched.add_argument(
        "--power-mode",
        choices=("uniform", "scaled-threshold", "power-regimes"),
        default=None,
        help="strategy for non-uniform power with --algo A",
    )
    sched.add_argument(
        "--regime-base",
        type=float,
        default=None,
        help="power bucket base of --power-mode power-regimes with --algo A (default 2)",
    )
    sched.set_defaults(func=cmd_schedule)

    ver = subs.add_parser("verify", help="verify a schedule against an instance")
    ver.add_argument("instance")
    ver.add_argument("schedule")
    ver.add_argument("--p", type=float, default=None, help="also require a p-signal schedule")
    ver.add_argument("--q", type=float, default=None, help="also require q-dispersed slots")
    ver.add_argument(
        "--theta",
        type=float,
        default=None,
        help="re-verify with every affectance scaled up by this factor",
    )
    ver.set_defaults(func=cmd_verify)

    ref = subs.add_parser("refine", help="strengthen or disperse a schedule")
    ref.add_argument("instance")
    ref.add_argument("schedule")
    group = ref.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--strengthen", nargs=2, type=float, metavar=("P", "PPRIME"), default=None
    )
    group.add_argument("--disperse", type=float, metavar="Q", default=None)
    ref.add_argument("--out", default="refined.json")
    ref.set_defaults(func=cmd_refine)

    exp = subs.add_parser("experiment", help="run a configured sweep")
    exp.add_argument("--config", required=True)
    exp.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="process count for concurrent instances (results are order-independent)",
    )
    exp.set_defaults(func=cmd_experiment)

    orc = subs.add_parser("oracle", help="run an exact small-instance oracle")
    orc.add_argument("instance")
    orc.add_argument("--mode", choices=("subset", "psignal", "schedule"), required=True)
    orc.add_argument("--p", type=float, default=None)
    orc.add_argument("--out", default="oracle.json")
    orc.set_defaults(func=cmd_oracle)

    red = subs.add_parser(
        "reduce-graph", help="reduce an edge-list graph to a gain matrix"
    )
    red.add_argument("graph")
    red.add_argument("--out", default="gains.json")
    red.add_argument(
        "--check",
        action="store_true",
        help="verify feasible-subset / independent-set correspondence",
    )
    red.set_defaults(func=cmd_reduce_graph)

    return parser


# --- subcommand implementations --------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    spec = topogen.TopologySpec(
        family=args.family,
        n=args.n,
        seed=args.seed,
        field_size=args.field,
        l_max=args.lmax,
        n_clusters=args.clusters,
        r_cluster=args.rc,
    )
    params = ModelParams(**{name: getattr(args, name) for name in MODEL_PARAM_NAMES})
    instance = topogen.generate(spec, params)
    save_instance(instance, args.out)
    print(f"generated family={spec.family} n={len(instance)} seed={spec.seed} -> {args.out}")
    return 0


def _apply_overrides(instance: Instance, args: argparse.Namespace) -> Instance:
    given = {name: getattr(args, name) for name in MODEL_PARAM_NAMES}
    overrides = {name: value for name, value in given.items() if value is not None}
    if not overrides:
        return instance
    params = dataclasses.replace(instance.params, **overrides)
    return Instance(params=params, links=instance.links)


def _gated_schedule(instance: Instance, args: argparse.Namespace) -> Schedule:
    """The schedule ``--algo`` asks for, after exactly one pass of the emission gate."""
    power = (args.power_mode, args.regime_base) if args.algo == "A" else ()
    schedule = schedulers.ALGORITHMS[_ALGORITHM_NAMES[args.algo]](instance, *power)
    core.verify_schedule(instance, schedule)
    return schedule


def cmd_schedule(args: argparse.Namespace) -> int:
    if args.algo != "A" and (args.power_mode is not None or args.regime_base is not None):
        raise ValueError("--power-mode and --regime-base apply only to --algo A")
    instance = _apply_overrides(load_instance(args.instance), args)
    schedule = _gated_schedule(instance, args)
    save_schedule(schedule, args.out)
    print(
        f"schedule: algo={args.algo} links={len(instance)} "
        f"slots={schedule.slot_count} verified=true -> {args.out}"
    )
    return 0


def _load_pair(args: argparse.Namespace) -> tuple[Instance, Schedule, PartitionReport]:
    """The instance and schedule files of ``args``, refused if the schedule names an unknown id."""
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    report = partition_report(instance, schedule)
    if report.dangling:
        raise ValueError(f"schedule references unknown link ids: {list(report.dangling)}")
    return instance, schedule, report


def _check_levels(args: argparse.Namespace, *flags: str) -> None:
    """Refuse any of the level ``flags`` given with a value that is not finite and positive."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and not (value > 0 and math.isfinite(value)):
            raise ValueError(f"--{flag} must be {'finite' if value > 0 else 'positive'}, got {value}")


def cmd_verify(args: argparse.Namespace) -> int:
    _check_levels(args, "p", "q", "theta")
    instance, schedule, report = _load_pair(args)
    if args.q is not None:  # dispersion needs one power per slot
        for slot in schedule.slots:
            core._require_uniform_power(instance.resolve(slot), instance.params)
    ok = True
    if not report.is_partition:
        ok = False
        print(
            f"partition: FAIL missing={list(report.missing)} "
            f"duplicated={list(report.duplicated)}"
        )
    else:
        print("partition: ok")
    inv_beta = 1.0 / instance.params.beta
    reports = core.slot_reports(instance, schedule)
    for idx, (slot, fr) in enumerate(zip(schedule.slots, reports)):
        slot_ok = fr.ok
        line = (
            f"slot {idx}: size={len(slot)} margin={_fmt(fr.margin)} "
            f"sinr_margin={_fmt(fr.sinr_margin)}"
        )
        if args.theta is not None:
            scaled = args.theta * fr.max_affectance
            slot_ok = slot_ok and scaled <= ceiling(inv_beta)
            line += f" theta_margin={_fmt(inv_beta - scaled)}"
        if not slot_ok:
            line += " FAIL"
            ok = False
        print(line)
    if args.p is not None:
        p_ok = core.first_p_violation(reports, args.p) is None
        print(f"p-signal(p={_fmt(args.p)}): {'ok' if p_ok else 'FAIL'}")
        ok = ok and p_ok
    if args.q is not None:
        q_ok = all(
            core.report_q_dispersed(instance, slot, fr, args.q)
            for slot, fr in zip(schedule.slots, reports)
        )
        print(f"dispersed(q={_fmt(args.q)}): {'ok' if q_ok else 'FAIL'}")
        ok = ok and q_ok
    print(f"verified={'true' if ok else 'false'}")
    return 0 if ok else 1


def _worst_growth(schedule: Schedule, refined: Schedule) -> int:
    """Most output slots made from one input slot.

    ``disperse`` replaces each input slot, in order, by consecutive output
    slots that partition it, so the pieces are counted off by size.
    """
    pieces = iter(refined.slots)
    worst = 0
    for slot in schedule.slots:
        left, count = len(slot), 0
        while left > 0:
            left -= len(next(pieces))
            count += 1
        worst = max(worst, count)
    return worst


def _ceil(x: float) -> int | float:
    """ceil(x) of a printed blow-up bound: inf past the float range."""
    return math.ceil(x) if x <= sys.float_info.max else math.inf


def cmd_refine(args: argparse.Namespace) -> int:
    if args.strengthen is not None:
        p, p_prime = args.strengthen
        if not (math.isfinite(p_prime) and 0 < p < p_prime):
            raise ValueError(f"--strengthen needs finite 0 < P < PPRIME, got {p} {p_prime}")
    elif not (math.isfinite(args.disperse) and args.disperse > 0):
        raise ValueError(f"--disperse must be finite and positive, got {args.disperse}")
    instance, schedule, _ = _load_pair(args)
    if args.strengthen is not None:
        refined = schedulers.strengthen(instance, schedule, p, p_prime)
        side = _ceil(2.0 * p_prime / p)
        observed = refined.slot_count / max(schedule.slot_count, 1)
        print(
            f"strengthen: slots {schedule.slot_count} -> {refined.slot_count}, "
            f"blow-up {_fmt(observed)}, bound {_ceil(side * side)}"
        )
    else:
        q = args.disperse
        refined = schedulers.disperse(instance, schedule, q)
        try:
            volume = (q + 2.0) ** instance.params.alpha
        except OverflowError:
            volume = math.inf
        stated, counting = _ceil(volume), _ceil(volume / instance.params.beta)
        growth = _worst_growth(schedule, refined)
        print(
            f"disperse: slots {schedule.slot_count} -> {refined.slot_count}, "
            f"worst per-slot growth {growth}, stated bound {stated}, "
            f"counting bound {counting}"
        )
    core.verify_schedule(instance, refined)
    save_schedule(refined, args.out)
    print(f"refined schedule -> {args.out}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    config = experiment.load_experiment_config(args.config)
    out = config.output or "results.csv"
    agg_path = os.path.splitext(out)[0] + "_aggregate.dat"
    if config.timings and os.path.realpath(config.timings) in map(os.path.realpath, (out, agg_path)):
        raise ValueError(f"timings must name a file of its own; {config.timings!r} is an output")
    try:
        rows, aggregates = experiment.run_experiment(config, workers=max(args.workers, 1))
    except experiment.ExperimentVerificationError as exc:
        directory = os.path.dirname(out) or "."
        inst_path = os.path.join(directory, "failed_instance.json")
        save_instance(exc.instance, inst_path)
        dumped = [inst_path]
        if exc.schedule is not None:
            sched_path = os.path.join(directory, "failed_schedule.json")
            save_schedule(exc.schedule, sched_path)
            dumped.append(sched_path)
        print(f"error: {exc} (dumped {', '.join(dumped)})", file=sys.stderr)
        return 1
    experiment.write_results_csv(rows, out)
    experiment.write_aggregates(aggregates, agg_path)
    print(f"wrote {len(rows)} rows -> {out}")
    print(f"wrote {len(aggregates)} aggregate rows -> {agg_path}")
    if config.timings:
        experiment.write_results_csv(rows, config.timings, experiment.TIMING_COLUMNS)
        print(f"wrote timings -> {config.timings}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if (args.mode == "psignal") != (args.p is not None):
        raise ValueError("--p is required by --mode psignal and applies to no other mode")
    _check_levels(args, "p")
    instance = load_instance(args.instance)
    if args.mode == "schedule":
        schedule = oracles.min_schedule(instance)
        core.verify_schedule(instance, schedule)
        slots = [list(s.sorted_members) for s in schedule.slots]
        obj = {"mode": "schedule", "slot_count": schedule.slot_count, "slots": slots}
        summary = f"oracle schedule: slots={schedule.slot_count}"
    else:
        if args.p is None:
            slot = oracles.max_feasible_subset(instance)
        else:
            slot = oracles.max_p_signal_subset(instance, args.p)
        # a psignal answer need not be SINR-feasible: p may lie below beta
        report = core.is_feasible(instance.resolve(slot), instance.params)
        if not (report.ok if args.p is None else core.first_p_violation([report], args.p) is None):
            raise VerificationError(
                f"oracle {args.mode} answer failed verification (worst link "
                f"{report.worst_link}, margin {report.margin:.6g})",
                link_id=report.worst_link,
            )
        obj = {"mode": args.mode, "size": len(slot), "members": list(slot.sorted_members)}
        if args.p is not None:
            obj["p"] = args.p
        summary = f"oracle {args.mode}: size={len(slot)}"
    write_canonical(args.out, obj)
    print(f"{summary} -> {args.out}")
    return 0


def cmd_reduce_graph(args: argparse.Namespace) -> int:
    graph = abstract.load_graph(args.graph)
    matrix = abstract.graph_to_instance(graph)
    if args.check:
        report = abstract.correspondence_check(graph)
        if not report.ok:
            print(
                f"correspondence: FAIL counterexample={sorted(report.counterexample)}",
                file=sys.stderr,
            )
            return 1
        print(f"correspondence: ok subsets={report.subsets_checked}")
    abstract.save_gain_matrix(matrix, args.out)
    print(f"gain matrix: n={matrix.n} -> {args.out}")
    return 0


def run() -> None:
    """The program entry of ``python -m capsched`` and the ``capsched`` script.

    Turns the cyclic collector off for the whole command, runs ``main()``,
    flushes stdout and stderr and ends the process with ``os._exit``: a
    process that ends this way never needs a collection, and the
    interpreter's teardown, which frees every module and object one by one,
    would only cost time. If a flush fails (a closed pipe, say), the exit is
    the interpreter's ordinary one, which reports the failure as it always
    has. ``main``, which runs in processes that live on, does neither.
    """
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        raise SystemExit(code) from None
    os._exit(code)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SizeLimitError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VerificationError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SchedulingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    run()
