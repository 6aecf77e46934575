"""Seeded inputs and correctness gates for the benchmark workloads.

A workload turns (seed, pass index, scale) into frontwave config files and
a list of CLI invocations. After a timed pass the same object reads the
outputs back and checks them. The program only ever sees the generated
config files.

Every pass draws fresh inputs from ``<workload>:<seed>:<pass>``, so a
cache that outlives one CLI call cannot turn later passes into repeats of
the first. Pass 0 is the same for a given seed however many passes a run
makes; counts and accuracy figures are taken from it. A run makes
``--seconds`` / ``pass_s`` passes, at least one: ``pass_s`` is a pass's
nominal time in reference seconds (perfbench/speed.py).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

FULL = "full"
TINY = "tiny"

# criterion 3 (speed within 5% of c0) and criterion 5 (final profile error)
C_REL_TOL = 0.05
PROFILE_ERR_TOL = 5e-2


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``outdir`` is None for commands that write nothing."""

    argv: tuple
    outdir: str | None = None
    cells: int = 1  # operations the invocation stands for (sweep cells)


@dataclass
class PassCheck:
    """What the gates found in one pass.

    ``failed`` counts operations (commands or sweep cells) that errored or
    failed a gate; ``wrong`` counts the subset whose output was produced but
    was incorrect. ``accuracy`` holds the figures the pass reports.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)

    def record(self, ok: bool, reason: str = "", wrong: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong)
            self.reasons.append(reason)


class _Workload:
    pass_s = 1.0

    def passes(self, seconds: float, scale: str) -> int:
        return 1 if scale == TINY else max(1, round(seconds / self.pass_s))


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _jitter(rng: random.Random, value: float, frac: float) -> float:
    return value * (1.0 + rng.uniform(-frac, frac))


def _num(x: float) -> str:
    return format(x, ".6g")


def _write_config(path: str, entries: dict) -> str:
    with open(path, "w", newline="\n") as fh:
        for key in sorted(entries):
            fh.write(f"{key} = {entries[key]}\n")
    return path


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# spread: the README simulate run
# ---------------------------------------------------------------------------

class Spread(_Workload):
    """README ``simulate`` config with h0 and amplitude jittered by the seed.

    h0 stays above l0 = pi/2 (Neumann), so every run spreads. dt is pinned
    at dt_cap for every draw, so the step count, and with it the work, does
    not depend on the seed. The jitter moves c_hat/c0 - 1 by about 4%.
    """

    name = "spread"
    pass_s = 10.0
    workers = 0
    ref_dx = None  # c0 reference at the program's own semi-wave numerics

    def build(self, seed: int, pass_index: int, scale: str, workdir: str) -> list:
        rng = _rng(self.name, seed, pass_index)
        tiny = scale == TINY
        cfg = _write_config(os.path.join(workdir, "spread.cfg"), {
            "model.boundary": "neumann",
            "init.h0": _num(_jitter(rng, 2.0, 0.05)),
            "init.shape": "cosine-bump",
            "init.amplitude": _num(_jitter(rng, 0.5, 0.1)),
            "numerics.n": "50" if tiny else "400",
            "stop.t_end": "20" if tiny else "60",
            "output.cadence": "0.1",
            "output.snapshots": "5,10,15,20" if tiny else "15,30,45,60",
        })
        out = os.path.join(workdir, "out")
        return [Op(("simulate", "--config", cfg, "--out", out), out)]

    def check(self, ops: list, rcs: list, refs: dict) -> PassCheck:
        chk = PassCheck()
        (op,), (rc,) = ops, rcs
        if rc != 0:
            chk.record(False, f"simulate exit {rc}")
            return chk
        report = _read_json(os.path.join(op.outdir, "report.json"))
        label = report["classification"]
        c_hat = report["c_hat"]
        series = sorted(report["profile_sup_error"])
        problems = []
        if label != "Spreading":
            problems.append(f"classified {label}")
        if c_hat is not None:
            c_rel = abs(c_hat / refs["c0"] - 1.0)
            chk.accuracy["c_rel_err"] = c_rel
            if c_rel > C_REL_TOL:
                problems.append(f"c_rel_err {c_rel:.3g} > {C_REL_TOL}")
        if len(series) >= 2:
            t_last, e_last = series[-1]
            # criterion 5: final error within bound and below the error at T/2
            t_mid, e_mid = min(series, key=lambda te: abs(te[0] - 0.5 * t_last))
            chk.accuracy["profile_err"] = e_last
            if not (e_last <= PROFILE_ERR_TOL and e_last < e_mid):
                problems.append(f"profile error {e_last:.3g} at t={t_last:g} "
                                f"vs {e_mid:.3g} at t={t_mid:g}")
        else:
            problems.append("fewer than 2 profile errors reported")
        chk.record(not problems, "; ".join(problems), wrong=True)
        return chk


# ---------------------------------------------------------------------------
# speeds-family: speeds + check on seeded admissible parameter sets
# ---------------------------------------------------------------------------

def _symmetric_set() -> dict:
    return {"nonlinearity.name": "saturating", "model.d1": "1", "model.d2": "1",
            "model.a": "1", "model.b": "1", "model.mu1": "1", "model.mu2": "1"}


def _random_set(rng: random.Random, cholera: bool, slow_tail: bool) -> dict:
    """One admissible set, with R0 = H'(0)G'(0)/(ab) drawn directly.

    Ordinary sets range widely (R0 in [3, 10]) and keep 12/beta(c0) < 40.
    A ``slow_tail`` set sits within 3% of R0 = 2.1, d2 = 3, a = b = 0.5,
    where the tail rate beta(c) is small and 12/beta(c) > 40 for the
    ladder speeds up to c0: the semi-wave grid then changes with c, and
    find_c0 rejects its warm starts and relaxes from cold. That costs
    about ten ordinary sets, so slow-tail sets are drawn narrowly to keep
    the work per pass nearly the same for every seed.
    """
    def pick(lo, hi, centre):
        return _jitter(rng, centre, 0.03) if slow_tail else rng.uniform(lo, hi)

    r0 = pick(3.0, 10.0, 2.1)
    a, b = pick(0.8, 1.2, 0.5), pick(0.8, 1.2, 0.5)
    lead = pick(1.0, 2.0, 1.5)  # H'(0): hp for saturating, c for cholera
    entries = {
        "model.d1": "1",
        "model.d2": _num(pick(0.6, 1.6, 3.0)),
        "model.a": _num(a),
        "model.b": _num(b),
        "model.mu1": _num(pick(0.5, 0.9, 0.7)),
        "model.mu2": _num(pick(1.1, 1.5, 1.3)),
        "nonlinearity.gp": _num(r0 * a * b / lead),
        "nonlinearity.gq": _num(pick(0.5, 2.0, 1.0)),
    }
    if cholera:
        entries.update({"nonlinearity.name": "cholera", "nonlinearity.c": _num(lead)})
    else:
        entries.update({"nonlinearity.name": "saturating", "nonlinearity.hp": _num(lead),
                        "nonlinearity.hq": _num(pick(0.5, 2.0, 1.0))})
    return entries


class SpeedsFamily(_Workload):
    """``speeds`` then ``check`` on each set of a seeded parameter family.

    Set 0 is the symmetric scenario, identical for every seed, so its closed
    forms are checked. Sets 1..8 are ordinary (R0 in [3, 10]); the last
    three are slow-tail sets that force cold semi-wave solves. The slots
    are fixed and the draws narrow, so the work per pass barely depends on
    the seed. The c0 reference for the symmetric set is an independent
    root of the speed equation on a grid twice as fine (``ref_dx``).
    """

    name = "speeds-family"
    pass_s = 8.0
    workers = 0
    ref_dx = 0.01

    def build(self, seed: int, pass_index: int, scale: str, workdir: str) -> list:
        rng = _rng(self.name, seed, pass_index)
        # (cholera, slow_tail) per seeded set
        slots = [(i % 2 == 1, False) for i in range(8)] + [(False, True), (True, True),
                                                          (False, True)]
        if scale == TINY:
            slots = [(True, False), (False, True)]
        sets = [_symmetric_set()] + [_random_set(rng, *slot) for slot in slots]
        ops = []
        for i, entries in enumerate(sets):
            entries.update({"model.boundary": "neumann", "init.h0": "2",
                            "init.shape": "cosine-bump", "init.amplitude": "0.5"})
            cfg = _write_config(os.path.join(workdir, f"set{i:02d}.cfg"), entries)
            out = os.path.join(workdir, f"out{i:02d}")
            ops.append(Op(("speeds", "--config", cfg, "--out", out), out))
            ops.append(Op(("check", "--config", cfg)))
        return ops

    def check(self, ops: list, rcs: list, refs: dict) -> PassCheck:
        chk = PassCheck()
        for i, (op, rc) in enumerate(zip(ops, rcs)):
            if op.argv[0] == "check":
                # every set is admissible, so a nonzero exit is a wrong verdict
                chk.record(rc == 0, f"check {op.argv[2]} exit {rc}", wrong=True)
                continue
            if rc != 0:
                chk.record(False, f"speeds {op.argv[2]} exit {rc}")
                continue
            s = _read_json(os.path.join(op.outdir, "speeds.json"))
            problems = []
            if not s["F_residual"] <= 1e-8:  # default numerics.f_tol
                problems.append(f"F_residual {s['F_residual']:.3g}")
            if not 0.0 < s["c0"] < s["c_star"]:
                problems.append(f"c0 {s['c0']} outside (0, c*={s['c_star']})")
            if i == 0:  # the symmetric scenario's closed forms
                closed = {"R0": (4.0, 1e-12), "u_star": (1.0, 1e-12), "v_star": (1.0, 1e-12),
                          "l0": (math.pi / 2, 1e-12), "c_star": (2.0, 1e-6)}
                for key, (want, tol) in closed.items():
                    if not abs(s[key] - want) <= tol:
                        problems.append(f"{key} {s[key]!r} != {want!r}")
                chk.accuracy["c_rel_err"] = abs(s["c0"] / refs["c0"] - 1.0)
            chk.record(not problems, f"speeds {op.argv[2]}: " + "; ".join(problems), wrong=True)
        return chk


# ---------------------------------------------------------------------------
# sweep-dichotomy: Dirichlet sweep on both sides of l0 = pi
# ---------------------------------------------------------------------------

class SweepDichotomy(_Workload):
    """``sweep --workers 2`` over an h0 x amplitude grid around l0 = pi.

    Two h0 columns lie well below l0 (those cells vanish, most of them
    before t = 10, which classify() rejects with fewer than 100 trace
    samples: counted as failed, as they are) and one above it (spreads to
    T = 25). The column above l0 and the amplitudes move by at most 0.5%,
    because the largest c_hat/c0 - 1, taken at the smallest spreading
    cell, changes by about 4% per 1% of h0 at T = 25.
    """

    name = "sweep-dichotomy"
    pass_s = 6.0
    workers = 2
    ref_dx = None
    l0 = math.pi  # Dirichlet threshold length of the symmetric scenario

    def build(self, seed: int, pass_index: int, scale: str, workdir: str) -> list:
        rng = _rng(self.name, seed, pass_index)
        tiny = scale == TINY
        below, above = ((1.2,), (4.0,)) if tiny else ((1.0, 1.5), (3.6,))
        h0s = [_jitter(rng, h, 0.05) for h in below] + [_jitter(rng, h, 0.005) for h in above]
        amps = [_jitter(rng, a, 0.005) for a in (0.2, 0.5)]
        cfg = _write_config(os.path.join(workdir, "sweep.cfg"), {
            "model.boundary": "dirichlet",
            "init.shape": "sine",
            "numerics.n": "50" if tiny else "200",
            "stop.t_end": "20" if tiny else "25",
            "output.cadence": "0.1",
            "output.snapshots": "20" if tiny else "25",
            "sweep.h0": ",".join(_num(h) for h in h0s),
            "sweep.amplitude": ",".join(_num(a) for a in amps),
        })
        out = os.path.join(workdir, "out")
        return [Op(("sweep", "--config", cfg, "--out", out, "--workers", str(self.workers)),
                   out, len(h0s) * len(amps))]

    def check(self, ops: list, rcs: list, refs: dict) -> PassCheck:
        chk = PassCheck()
        (op,), (rc,) = ops, rcs
        if rc != 0:
            for _ in range(op.cells):
                chk.record(False, f"sweep exit {rc}")
            return chk
        with open(os.path.join(op.outdir, "outcomes.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        worst = None
        for row in rows:
            if row["status"] != "ok":
                chk.record(False, f"cell {row['index']} (h0={row['h0']}): {row['status']}")
                continue
            h0, label = float(row["h0"]), row["classification"]
            problems = []
            if label == "Vanishing" and h0 >= self.l0:
                problems.append("vanished with h0 >= l0")
            if label == "Vanishing" and float(row["h_final"]) >= self.l0:
                problems.append(f"vanished with h_final {row['h_final']} >= l0")
            if label == "Spreading":
                c_rel = abs(float(row["c_hat"]) / refs["c0"] - 1.0)
                worst = c_rel if worst is None else max(worst, c_rel)
            chk.record(not problems, f"cell {row['index']}: " + "; ".join(problems), wrong=True)
        for _ in range(op.cells - len(rows)):
            chk.record(False, "missing outcome row")
        if worst is not None:
            chk.accuracy["c_rel_err"] = worst
        return chk


WORKLOADS = {w.name: w for w in (Spread(), SpeedsFamily(), SweepDichotomy())}
