"""Output checker for the benchmark, written without importing capsched.

Every file the program emits is re-read from disk and checked here with
numpy: schedules must partition the instance's link ids and every slot must
meet the SINR threshold when computed directly, with the same documented
slack the program uses (SINR/beta - 1 >= -1e-12). Each function returns a
list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass

import numpy as np

SLACK = 1e-12


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Inst:
    """An instance file as flat arrays, indexed by position in the file."""

    ids: list[int]
    index: dict[int, int]
    sx: np.ndarray
    sy: np.ndarray
    rx: np.ndarray
    ry: np.ndarray
    power: np.ndarray
    alpha: float
    beta: float
    noise: float


def load_instance(path: str) -> Inst:
    doc = read_json(path)
    params = doc["params"]
    links = doc["links"]
    default = float(params.get("default_power", 1.0))
    ids = [int(link["id"]) for link in links]

    def col(key: str) -> np.ndarray:
        return np.array([float(link[key]) for link in links])

    return Inst(
        ids=ids,
        index={i: k for k, i in enumerate(ids)},
        sx=col("sx"),
        sy=col("sy"),
        rx=col("rx"),
        ry=col("ry"),
        power=np.array([float(link.get("power", default)) for link in links]),
        alpha=float(params["alpha"]),
        beta=float(params["beta"]),
        noise=float(params.get("noise", 0.0)),
    )


def _received(inst: Inst, idx: np.ndarray) -> np.ndarray:
    """recv[w, v]: power of w's sender at v's receiver, for members idx."""
    d = np.hypot(
        inst.sx[idx][:, None] - inst.rx[idx][None, :],
        inst.sy[idx][:, None] - inst.ry[idx][None, :],
    )
    return inst.power[idx][:, None] / d**inst.alpha


def check_slot(
    inst: Inst, idx: np.ndarray, label: str, p: float | None = None, q: float | None = None
) -> list[str]:
    """Direct SINR of every member; optionally the p-signal and q-dispersion levels."""
    if len(idx) == 0:
        return [f"{label}: empty slot"]
    recv = _received(inst, idx)
    signal = np.diag(recv).copy()
    np.fill_diagonal(recv, 0.0)
    interference = recv.sum(axis=0)
    denom = interference + inst.noise
    with np.errstate(divide="ignore"):
        sinr = np.where(denom > 0, signal / np.where(denom > 0, denom, 1.0), np.inf)
    errors = []
    margin = sinr / inst.beta - 1.0
    if not (margin >= -SLACK).all():
        worst = int(np.argmin(margin))
        errors.append(
            f"{label}: link {inst.ids[idx[worst]]} has SINR margin {margin[worst]:.3e}"
        )
    cv = 1.0 / (1.0 - inst.beta * inst.noise / signal)
    if p is not None:
        aff = cv * interference / signal
        if not (aff <= 1.0 / p + SLACK).all():
            errors.append(f"{label}: not {p}-signal (max affectance {aff.max():.6g})")
    if q is not None:
        single = cv[None, :] * recv / signal[None, :]
        if (single > q ** (-inst.alpha)).any():
            errors.append(f"{label}: not {q}-dispersed")
    return errors


def check_schedule(
    inst: Inst, slots: list[list[int]], label: str, p: float | None = None, q: float | None = None
) -> list[str]:
    """Partition of the instance's ids, then check_slot on every slot."""
    counts = np.zeros(len(inst.ids), dtype=np.int64)
    errors = []
    resolved = []
    for k, slot in enumerate(slots):
        unknown = [i for i in slot if i not in inst.index]
        if unknown:
            errors.append(f"{label}: slot {k} names unknown ids {unknown[:5]}")
            continue
        idx = np.array([inst.index[i] for i in slot], dtype=np.int64)
        counts[idx] += 1
        resolved.append((k, idx))
    if (counts != 1).any():
        missing = int((counts == 0).sum())
        repeated = int((counts > 1).sum())
        errors.append(f"{label}: not a partition ({missing} missing, {repeated} repeated)")
    for k, idx in resolved:
        errors.extend(check_slot(inst, idx, f"{label} slot {k}", p, q))
    return errors


def schedule_slots(path: str) -> list[list[int]]:
    return [list(slot) for slot in read_json(path)["slots"]]


def check_subset(inst: Inst, members: list[int], label: str, p: float | None = None) -> list[str]:
    unknown = [i for i in members if i not in inst.index]
    if unknown or len(set(members)) != len(members):
        return [f"{label}: members are not distinct ids of the instance"]
    idx = np.array([inst.index[i] for i in members], dtype=np.int64)
    return check_slot(inst, idx, label, p=p)


def check_gains(graph_path: str, gains_path: str) -> list[str]:
    """The reduction's matrix: 2 on edges, 1/n elsewhere, 0 on the diagonal."""
    with open(graph_path, "r", encoding="utf-8") as fh:
        tokens = [int(t) for t in fh.read().split()]
    n, m = tokens[0], tokens[1]
    expected = np.full((n, n), 1.0 / n)
    for k in range(m):
        u, v = tokens[2 + 2 * k], tokens[3 + 2 * k]
        expected[u, v] = expected[v, u] = 2.0
    np.fill_diagonal(expected, 0.0)
    doc = read_json(gains_path)
    got = np.array(doc["entries"], dtype=float)
    if doc["n"] != n or doc["threshold"] != 1.0 or got.size != n * n:
        return [f"gain matrix header wrong: n={doc['n']} threshold={doc['threshold']}"]
    if not np.array_equal(got.reshape(n, n), expected):
        return ["gain matrix entries differ from the reduction's definition"]
    return []


def results_rows(path: str) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_results(path: str, cells: int) -> list[str]:
    rows = results_rows(path)
    errors = []
    if len(rows) != cells:
        errors.append(f"{path}: {len(rows)} rows, expected {cells}")
    if any(row["verified"] != "true" for row in rows):
        errors.append(f"{path}: a row is not verified")
    if any(int(row["slot_count"]) < 1 for row in rows):
        errors.append(f"{path}: a row has no slots")
    return errors
