"""The benchmark's workloads: command sequences, derived inputs and checks.

A workload is an ordered list of steps. A ``derive`` step is harness code
that writes an input file from the workload seed (the per-link-power copy,
the edge list, the sweep configs); every other step is one ``capsched``
command line. Each command step carries a check that reads what the command
wrote and validates it with ``check.py`` (which never imports capsched).

All inputs depend only on the workload seed, so the same seed gives the
same files, and the program sees nothing but those files.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import check

class Ctx:
    """What one pass over a workload has seen so far: loaded files and facts."""

    def __init__(self, rundir: str):
        self.rundir = rundir
        self.slots_total = 0
        self.facts: dict[str, object] = {}
        self._insts: dict[str, check.Inst] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.rundir, name)

    def inst(self, name: str) -> check.Inst:
        if name not in self._insts:
            self._insts[name] = check.load_instance(self.path(name))
        return self._insts[name]

    def slots(self, name: str) -> list[list[int]]:
        if name not in self.facts:
            self.facts[name] = check.schedule_slots(self.path(name))
        return self.facts[name]


Check = Callable[[Ctx, str], list[str]]


@dataclass(frozen=True)
class Step:
    label: str
    kind: str  # derive | gen | schedule | verify | refine | oracle | experiment
    argv: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    check: Check | None = None
    action: Callable[[str], None] | None = None  # derive: writes into the run directory
    links: int = 0  # links this command schedules (links_per_s)
    cells: int = 0  # experiment cells (cells_per_s)
    workers: int = 0  # experiment worker count


def _rng(seed: int, purpose: str) -> random.Random:
    # string seeds are hashed with sha512, so this does not depend on PYTHONHASHSEED
    return random.Random(f"capsched-perfbench:{seed}:{purpose}")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


# --- derived inputs ----------------------------------------------------------


def power_copy(src: str, dst: str, seed: int) -> Callable[[str], None]:
    """The same instance with seeded per-link powers drawn from {1, 2, 4, 8}."""

    def action(rundir: str) -> None:
        doc = check.read_json(os.path.join(rundir, src))
        rng = _rng(seed, "powers")
        for link in doc["links"]:
            link["power"] = float(rng.choice((1, 2, 4, 8)))
        _write_json(os.path.join(rundir, dst), doc)

    return action


def edge_list(dst: str, seed: int, n: int, density: float = 0.15) -> Callable[[str], None]:
    """A seeded G(n, density) graph in the `n m` + `u v` edge-list format."""

    def action(rundir: str) -> None:
        rng = _rng(seed, "graph")
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        with open(os.path.join(rundir, dst), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{n} {len(edges)}\n")
            fh.writelines(f"{u} {v}\n" for u, v in edges)

    return action


def sweep_config(dst: str, output: str, seed: int, sizes: list[int], reps: int) -> Callable[[str], None]:
    def action(rundir: str) -> None:
        _write_json(
            os.path.join(rundir, dst),
            {
                "topology": {"family": "clustered", "n": sizes[0]},
                "sweep": [["n", sizes]],
                "algorithms": ["A-repeated", "B-repeated", "first-fit-baseline"],
                "repetitions": reps,
                "base_seed": seed,
                "output": output,
            },
        )

    return action


# --- checks ------------------------------------------------------------------


def _gen_check(out: str, n: int) -> Check:
    def run(ctx: Ctx, stdout: str) -> list[str]:
        got = len(ctx.inst(out).ids)
        return [] if got == n else [f"{out}: {got} links, expected {n}"]

    return run


def _schedule_check(inst: str, out: str, p: float | None = None, q: float | None = None) -> Check:
    """An emitted schedule: partition plus direct SINR (and p / q levels when claimed)."""

    def run(ctx: Ctx, stdout: str) -> list[str]:
        slots = ctx.slots(out)
        ctx.slots_total += len(slots)
        return check.check_schedule(ctx.inst(inst), slots, out, p, q)

    return run


def _verify_check(inst: str, sched: str, p: float | None = None, q: float | None = None) -> Check:
    """The verdict printed by `verify` must agree with the independent check."""

    def run(ctx: Ctx, stdout: str) -> list[str]:
        errors = check.check_schedule(ctx.inst(inst), ctx.slots(sched), sched, p, q)
        lines = stdout.strip().splitlines()
        if not lines or lines[-1] != "verified=true":
            errors.append(f"verify {sched}: did not print verified=true")
        return errors

    return run


def _strengthen_check(inst: str, src: str, out: str, p: float, p_prime: float) -> Check:
    base = _schedule_check(inst, out, p=p_prime)

    def run(ctx: Ctx, stdout: str) -> list[str]:
        errors = base(ctx, stdout)
        bound = math.ceil(2.0 * p_prime / p) ** 2
        if len(ctx.slots(out)) > bound * len(ctx.slots(src)):
            errors.append(f"{out}: blow-up above the bound {bound}")
        return errors

    return run


def _oracle_schedule_check(inst: str, out: str, greedy: str) -> Check:
    """Exact minimum: a feasible partition no longer than the greedy schedule."""

    def run(ctx: Ctx, stdout: str) -> list[str]:
        doc = check.read_json(ctx.path(out))
        slots = doc["slots"]
        ctx.slots_total += len(slots)
        errors = check.check_schedule(ctx.inst(inst), slots, out)
        if doc["slot_count"] != len(slots) or len(slots) > len(ctx.slots(greedy)):
            errors.append(f"{out}: slot_count {doc['slot_count']} is not a minimum")
        return errors

    return run


def _oracle_subset_check(inst: str, out: str, greedy: str) -> Check:
    """Maximum feasible subset: feasible, and no smaller than any greedy slot."""

    def run(ctx: Ctx, stdout: str) -> list[str]:
        doc = check.read_json(ctx.path(out))
        members = doc["members"]
        ctx.facts[out] = len(members)
        errors = check.check_subset(ctx.inst(inst), members, out)
        largest = max(len(s) for s in ctx.slots(greedy))
        if doc["size"] != len(members) or len(members) < largest:
            errors.append(f"{out}: size {doc['size']} is below a feasible slot of {largest}")
        return errors

    return run


def _oracle_psignal_check(inst: str, out: str, p: float, subset: str) -> Check:
    """Maximum p-signal subset with p > beta: p-signal, and no larger than the feasible maximum."""

    def run(ctx: Ctx, stdout: str) -> list[str]:
        doc = check.read_json(ctx.path(out))
        members = doc["members"]
        errors = check.check_subset(ctx.inst(inst), members, out, p=p)
        if doc["size"] != len(members) or len(members) > ctx.facts[subset]:
            errors.append(f"{out}: size {doc['size']} exceeds the feasible maximum")
        return errors

    return run


def _reduce_check(graph: str, out: str, n: int) -> Check:
    def run(ctx: Ctx, stdout: str) -> list[str]:
        errors = check.check_gains(ctx.path(graph), ctx.path(out))
        if f"correspondence: ok subsets={2 ** n}" not in stdout:
            errors.append("reduce-graph: correspondence check not reported ok on every subset")
        return errors

    return run


def _sweep_check(out: str, cells: int, same_as: str | None) -> Check:
    """Rows all verified; a second sweep must match the first byte for byte."""
    agg = os.path.splitext(out)[0] + "_aggregate.dat"

    def run(ctx: Ctx, stdout: str) -> list[str]:
        errors = check.check_results(ctx.path(out), cells)
        digest = (check.sha256(ctx.path(out)), check.sha256(ctx.path(agg)))
        if same_as is None:
            ctx.facts[out] = digest
            ctx.slots_total += sum(int(r["slot_count"]) for r in check.results_rows(ctx.path(out)))
        elif same_as in ctx.facts and ctx.facts[same_as] != digest:
            errors.append(f"{out}: differs from {same_as}; the worker count changed the output")
        return errors

    return run


# --- the workloads -----------------------------------------------------------


def _gen(label: str, family: str, n: int, seed: int, out: str) -> Step:
    return Step(
        label,
        "gen",
        ("gen", "--family", family, "--n", str(n), "--seed", str(seed), "--out", out),
        (out,),
        _gen_check(out, n),
    )


def _schedule(label: str, inst: str, algo: str, out: str, n: int) -> Step:
    return Step(
        label,
        "schedule",
        ("schedule", inst, "--algo", algo, "--out", out),
        (out,),
        _schedule_check(inst, out),
        links=n,
    )


def _verify(label: str, inst: str, sched: str, *extra: str, p=None, q=None) -> Step:
    return Step(label, "verify", ("verify", inst, sched, *extra), (), _verify_check(inst, sched, p, q))


def large_greedy(seed: int, tiny: bool) -> list[Step]:
    n = 60 if tiny else 1000
    return [
        _gen("gen random", "random", n, seed, "inst.json"),
        Step("derive powers", "derive", action=power_copy("inst.json", "inst_power.json", seed)),
        _schedule("schedule A", "inst.json", "A", "a.json", n),
        _verify("verify A", "inst.json", "a.json"),
        _schedule("schedule B", "inst.json", "B", "b.json", n),
        _verify("verify B", "inst.json", "b.json"),
        _schedule("schedule A power", "inst_power.json", "A", "a_power.json", n),
        _verify("verify A power", "inst_power.json", "a_power.json"),
    ]


# verify-refine's slot counts vary by about 0.17 (quartile distance over median)
# between single clustered instances; summing over two halves that spread.
REFINE_INSTANCES = 2


def verify_refine(seed: int, tiny: bool) -> list[Step]:
    n = 60 if tiny else 1000
    steps = []
    for k in range(REFINE_INSTANCES):
        inst, ff, strong, spread = (f"{name}{k}.json" for name in ("inst", "ff", "strong", "spread"))
        steps += [
            _gen(f"gen clustered {k}", "clustered", n, REFINE_INSTANCES * seed + k, inst),
            _schedule(f"schedule firstfit {k}", inst, "firstfit", ff, n),
            _verify(f"verify firstfit {k}", inst, ff, "--p", "1.2", "--theta", "1.0", p=1.2),
            Step(
                f"refine strengthen {k}",
                "refine",
                ("refine", inst, ff, "--strengthen", "1.2", "2.4", "--out", strong),
                (strong,),
                _strengthen_check(inst, ff, strong, 1.2, 2.4),
            ),
            Step(
                f"refine disperse {k}",
                "refine",
                ("refine", inst, ff, "--disperse", "2", "--out", spread),
                (spread,),
                _schedule_check(inst, spread, q=2.0),
            ),
            _verify(f"verify strengthened {k}", inst, strong, p=2.4),
            _verify(f"verify dispersed {k}", inst, spread, "--q", "2", q=2.0),
        ]
    return steps


def small_exact(seed: int, tiny: bool) -> list[Step]:
    sizes, reps = ([20, 30], 1) if tiny else ([100, 200, 400], 3)
    n_sched, n_subset, n_graph = (6, 8, 8) if tiny else (12, 20, 20)
    cells = len(sizes) * reps * 3
    steps = [
        Step("derive graph", "derive", action=edge_list("graph.txt", seed, n_graph)),
        Step("derive sweep w1", "derive", action=sweep_config("sweep1.json", "sweep1.csv", seed, sizes, reps)),
        Step("derive sweep w2", "derive", action=sweep_config("sweep2.json", "sweep2.csv", seed, sizes, reps)),
        _gen("gen n12 a", "clustered", n_sched, seed, "s12a.json"),
        _gen("gen n12 b", "clustered", n_sched, seed + 1, "s12b.json"),
        _gen("gen n20", "clustered", n_subset, seed, "s20.json"),
    ]
    for workers, cfg, out in ((1, "sweep1.json", "sweep1.csv"), (2, "sweep2.json", "sweep2.csv")):
        agg = os.path.splitext(out)[0] + "_aggregate.dat"
        steps.append(
            Step(
                f"experiment w{workers}",
                "experiment",
                ("experiment", "--config", cfg, "--workers", str(workers)),
                (out, agg),
                _sweep_check(out, cells, None if workers == 1 else "sweep1.csv"),
                cells=cells,
                workers=workers,
            )
        )
    for name, n in (("s12a", n_sched), ("s12b", n_sched), ("s20", n_subset)):
        steps.append(_schedule(f"schedule A {name}", f"{name}.json", "A", f"a_{name}.json", n))
        steps.append(_verify(f"verify A {name}", f"{name}.json", f"a_{name}.json"))
    for name in ("s12a", "s12b"):
        out = f"opt_{name}.json"
        steps.append(
            Step(
                f"oracle schedule {name}",
                "oracle",
                ("oracle", f"{name}.json", "--mode", "schedule", "--out", out),
                (out,),
                _oracle_schedule_check(f"{name}.json", out, f"a_{name}.json"),
            )
        )
    steps += [
        Step(
            "oracle subset",
            "oracle",
            ("oracle", "s20.json", "--mode", "subset", "--out", "subset.json"),
            ("subset.json",),
            _oracle_subset_check("s20.json", "subset.json", "a_s20.json"),
        ),
        Step(
            "oracle psignal",
            "oracle",
            ("oracle", "s20.json", "--mode", "psignal", "--p", "2", "--out", "psignal.json"),
            ("psignal.json",),
            _oracle_psignal_check("s20.json", "psignal.json", 2.0, "subset.json"),
        ),
        Step(
            "reduce-graph",
            "oracle",
            ("reduce-graph", "graph.txt", "--out", "gains.json", "--check"),
            ("gains.json",),
            _reduce_check("graph.txt", "gains.json", n_graph),
        ),
    ]
    return steps


WORKLOADS: dict[str, Callable[[int, bool], list[Step]]] = {
    "large-greedy": large_greedy,
    "verify-refine": verify_refine,
    "small-exact": small_exact,
}
