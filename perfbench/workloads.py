"""Seeded inputs for the benchmark workloads.

``generate(workload, seed, work_dir)`` writes every domain, operator, motion
and CSV file a workload needs under ``work_dir``, writes ``planted.json``
with the verdict planted in each command, and returns the commands in the
order one pass runs them.  The same seed always gives the same bytes.

Every motion is grid-exact (a symmetry of the square lattice plus a
translation by whole cells) except where a planted answer does not depend on
rasterization, so the planted verdicts hold for every seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import asdict, dataclass, field

WORKLOADS = ("calculus", "operators", "congruence")

# Symmetries of the square lattice as integer matrices: rotations by k*90
# degrees, optionally composed with the flip (x, y) -> (x, -y).
_DIHEDRAL = tuple(
    tuple(tuple(v * (f if j == 1 else 1) for j, v in enumerate(row)) for row in rot)
    for rot in (((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((0, 1), (-1, 0)))
    for f in (1, -1)
)


@dataclass(frozen=True)
class Command:
    """One `sil` invocation with the answer planted in its inputs."""

    label: str             # unique within the workload
    metric: str            # per-command metric the time is added to
    argv: tuple[str, ...]  # arguments after `sil`
    exit_code: int         # planted exit code
    outputs: tuple[str, ...]  # files the command writes, compared across repeats
    planted: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def suite_seed(seed: int) -> str:
    """The `--seed` of the clarkson suite for a benchmark seed.

    Clarkson's inequality holds for every draw and the suite's cost does not
    depend on the draw, so only this suite takes the benchmark seed; the
    others run at their defaults, whose checks and cost are pinned.
    """
    return str(seed % 2**31)


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _verify(work_dir: str, suite: str, *extra: str, label: str | None = None,
            exit_code: int = 0, planted: dict | None = None) -> Command:
    label = label or suite
    report = os.path.join(work_dir, f"report_{label}.json")
    argv = ("verify", "--suite", suite, *extra, "--report", report)
    return Command(label, f"verify.{suite}", argv, exit_code, (report,),
                   {"kind": "suite", **(planted or {})})


def _motion(Q, b, sign: int) -> dict:
    return {"Q": [[float(v) for v in row] for row in Q], "b": [float(v) for v in b],
            "sign": sign}


def _image_box(Q, lo, hi, shift):
    """Integer cell box [lo, hi] under x -> Q x + shift, as a (lo, hi) pair."""
    a = [sum(Q[i][j] * lo[j] for j in range(2)) + shift[i] for i in range(2)]
    b = [sum(Q[i][j] * hi[j] for j in range(2)) + shift[i] for i in range(2)]
    return [min(a[i], b[i]) for i in range(2)], [max(a[i], b[i]) for i in range(2)]


def _box(lo, hi, h: float) -> dict:
    return {"lo": [v * h for v in lo], "hi": [v * h for v in hi]}


# -- calculus -------------------------------------------------------------------


def _calculus(rng: random.Random, seed: int, work_dir: str) -> list[Command]:
    # Stencil discovery dominates: every `gradient` call looks up the +/-2
    # neighbour rows through `rows_of_indices`.  Many small grids (2,500
    # cells in norm-calculus) mix with the 1D and 2D plaplace ladders up to
    # 160k cells; no operator is applied.
    return [
        _verify(work_dir, "norm-calculus"),
        _verify(work_dir, "clarkson", "--seed", suite_seed(seed)),
        _verify(work_dir, "plaplace", "--p", "3"),
    ]


# -- operators ------------------------------------------------------------------


def _tabulated_operator(rng: random.Random, work_dir: str) -> Command:
    """A rigid map tabulated on a 200x200 box, with g.csv and xi.csv."""
    h = 0.005
    n = 200
    k0 = (rng.randint(-100, 100), rng.randint(-100, 100))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    reflect = rng.random() < 0.5
    c, s = math.cos(angle), math.sin(angle)
    Q = [[c, s if reflect else -s], [s, -c if reflect else c]]
    b = [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]
    sign = rng.choice((1, -1))
    origin = (k0[0] * h, k0[1] * h)
    g_lines = ["i,j,x,y,value"]
    xi_lines = ["i,j,x,y,v0,v1"]
    for i in range(n):
        x = origin[0] + h * (i + 0.5)
        for j in range(n):
            y = origin[1] + h * (j + 0.5)
            coords = f"{i},{j},{x!r},{y!r}"
            g_lines.append(f"{coords},{float(sign)!r}")
            xi_lines.append(f"{coords},{Q[0][0] * x + Q[0][1] * y + b[0]!r},"
                            f"{Q[1][0] * x + Q[1][1] * y + b[1]!r}")
    for name, lines in (("g.csv", g_lines), ("xi.csv", xi_lines)):
        with open(os.path.join(work_dir, name), "w") as fh:
            fh.write("\r\n".join(lines) + "\r\n")
    spec = {"tabulated": {"g": "g.csv", "xi": "xi.csv"},
            "target": {"dim": 2, "h": h,
                       "boxes": [{"lo": list(origin), "hi": [origin[0] + n * h, origin[1] + n * h]}]}}
    spec_path = os.path.join(work_dir, "tabulated.json")
    _write_json(spec_path, spec)
    out = os.path.join(work_dir, "reconstruct_out")
    return Command(
        "reconstruct.tabulated", "reconstruct.tabulated",
        ("reconstruct", "--spec", spec_path, "--p", "2", "--out", out), 0,
        tuple(os.path.join(out, f) for f in ("g_hat.csv", "xi_hat.csv", "rigid_fit.json")),
        {"kind": "tabulated", "Q": Q, "b": b, "sign": sign, "h": h, "n_cells": n * n})


def _operators(rng: random.Random, seed: int, work_dir: str) -> list[Command]:
    # Most time goes to interpolation inside `apply` (every rejected
    # intertwining trial costs one more apply), probe reconstruction, rigid
    # fitting and CSV read/write; `gradient` is about a third.
    return [
        _verify(work_dir, "examples"),
        _verify(work_dir, "reconstruction"),
        _tabulated_operator(rng, work_dir),
    ]


# -- congruence -----------------------------------------------------------------


def _holed_box_spec(rng: random.Random) -> dict:
    """A box with a rectangular hole, moved by a seeded grid-exact motion."""
    h = 0.01
    w, t = rng.randint(60, 100), rng.randint(60, 100)
    lo = (rng.randint(-50, 50), rng.randint(-50, 50))
    hw, ht = rng.randint(10, w // 3), rng.randint(10, t // 3)
    hole_lo = (lo[0] + rng.randint(5, w - hw - 5), lo[1] + rng.randint(5, t - ht - 5))
    Q = rng.choice(_DIHEDRAL)
    shift = (rng.randint(-80, 80), rng.randint(-80, 80))
    target = {"dim": 2, "h": h,
              "boxes": [_box(lo, (lo[0] + w, lo[1] + t), h)],
              "subtract": [_box(hole_lo, (hole_lo[0] + hw, hole_lo[1] + ht), h)]}
    spec = {"target": target,
            "rigid": [_motion(Q, (shift[0] * h, shift[1] * h), rng.choice((1, -1)))]}
    return spec


def _lattice_spec(rng: random.Random) -> tuple[dict, int]:
    """About 100 square blocks, each sent onto a permuted block of a shifted copy."""
    h = 0.01
    size, pitch = 8, 10
    nx = rng.randint(9, 12)
    ny = round(100 / nx)
    offset = (rng.randint(-200, 200), rng.randint(-200, 200))
    blocks = [(bx * pitch, by * pitch) for bx in range(nx) for by in range(ny)]
    sources = [(x + offset[0], y + offset[1]) for x, y in blocks]
    perm = list(range(len(blocks)))
    rng.shuffle(perm)
    rigid = []
    # connected components come out ordered by their smallest cell, which is
    # the (x, y) order of the block corners enumerated above
    for comp, (x, y) in enumerate(blocks):
        Q = rng.choice(_DIHEDRAL)
        sx, sy = sources[perm[comp]]
        # map the block center onto the source block center; all centers sit
        # on whole cells because the block size is even
        c = (x + size // 2, y + size // 2)
        qc = [Q[0][0] * c[0] + Q[0][1] * c[1], Q[1][0] * c[0] + Q[1][1] * c[1]]
        shift = (sx + size // 2 - qc[0], sy + size // 2 - qc[1])
        entry = _motion(Q, (shift[0] * h, shift[1] * h), rng.choice((1, -1)))
        entry["component"] = comp
        rigid.append(entry)

    def domain(corners):
        return {"dim": 2, "h": h,
                "boxes": [_box((x, y), (x + size, y + size), h) for x, y in corners]}

    return {"source": domain(sources), "target": domain(blocks), "rigid": rigid}, len(blocks)


def _fat_cantor_spec(rng: random.Random) -> dict:
    """The unit interval against the fat-Cantor complement of mass 0.5."""
    h = 1e-4
    return {"h": h, "source": {"dim": 1, "h": h, "boxes": [{"lo": [0.0], "hi": [1.0]}]},
            "target": "fat_cantor(0.5)",
            "rigid": [_motion([[1]], [0.0], rng.choice((1, -1)))]}


def _pair_domains(rng: random.Random, h: float, holed: bool) -> tuple[dict, dict, dict]:
    """An L-shaped domain2, its exact image domain1, and the motion between them.

    Sizes vary little between seeds so that the cost of a pass does not.
    """
    cells = round(0.01 / h)  # box sizes below are counted in 0.01-wide units
    w, t = rng.randint(70, 90) * cells, rng.randint(70, 90) * cells
    arm_w = rng.randint(20, 40) * cells
    lo = (rng.randint(-50, 50) * cells, rng.randint(-50, 50) * cells)
    boxes = [(lo, (lo[0] + w, lo[1] + t)),
             ((lo[0] + w, lo[1]), (lo[0] + w + arm_w, lo[1] + t // 2))]
    Q = rng.choice(_DIHEDRAL)
    shift = (rng.randint(-80, 80) * cells, rng.randint(-80, 80) * cells)
    images = [_image_box(Q, a, b, shift) for a, b in boxes]
    domain2 = {"dim": 2, "h": h, "boxes": [_box(a, b, h) for a, b in boxes]}
    domain1 = {"dim": 2, "h": h, "boxes": [_box(a, b, h) for a, b in images]}
    if holed:
        # a 0.3 x 0.3 hole, well above the default tolerance 4h
        (a, b) = images[0]
        side = 30 * cells
        hx = rng.randint(a[0] + 5 * cells, b[0] - side - 5 * cells)
        hy = rng.randint(a[1] + 5 * cells, b[1] - side - 5 * cells)
        domain1["subtract"] = [_box((hx, hy), (hx + side, hy + side), h)]
    motion = _motion(Q, (shift[0] * h, shift[1] * h), 1)
    return domain1, domain2, motion


def _congruence(rng: random.Random, seed: int, work_dir: str) -> list[Command]:
    # Many fresh domains, connected-component labellings and one-shot cell
    # lookups, with few stencils applied per domain: work moved into
    # per-domain set-up (cached stencils or interpolation matrices) shows
    # here as a cost.
    commands = []
    holed = _holed_box_spec(rng)
    lattice, lattice_parts = _lattice_spec(rng)
    specs = [
        ("two_block", {"builtin": "example_5_4", "h": 5e-3}, {"congruent": True, "components": 2}),
        ("holed_box", holed, {"congruent": True, "components": 1}),
        ("lattice", lattice, {"congruent": True, "components": lattice_parts}),
        ("fat_cantor", _fat_cantor_spec(rng), {"congruent": False, "n1_measure": 0.5}),
    ]
    for name, spec, planted in specs:
        path = os.path.join(work_dir, f"spec_{name}.json")
        _write_json(path, spec)
        commands.append(_verify(work_dir, "congruence", "--spec", path,
                                label=f"congruence.{name}",
                                exit_code=0 if planted["congruent"] else 1,
                                planted={"kind": "pipeline", **planted}))
    n_pairs = 20
    holes = [i % 2 == 1 for i in range(n_pairs)]
    rng.shuffle(holes)
    for i, holed_pair in enumerate(holes):
        d1, d2, motion = _pair_domains(rng, (0.005, 0.01)[i % 2], holed_pair)
        paths = [os.path.join(work_dir, f"pair{i:02d}_{part}.json")
                 for part in ("domain1", "domain2", "motion")]
        for path, payload in zip(paths, (d1, d2, motion)):
            _write_json(path, payload)
        argv = ("congruence", "--domain1", paths[0], "--domain2", paths[1],
                "--motion", paths[2])
        commands.append(Command(f"congruence.pair{i:02d}", "congruence.pairs", argv,
                                1 if holed_pair else 0, (),
                                {"kind": "pair", "congruent": not holed_pair}))
    return commands


_GENERATORS = {"calculus": _calculus, "operators": _operators, "congruence": _congruence}


def generate(workload: str, seed: int, work_dir: str) -> list[Command]:
    """Write the workload's inputs for ``seed`` and return its commands."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(work_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    commands = _GENERATORS[workload](rng, seed, work_dir)
    _write_json(os.path.join(work_dir, "planted.json"),
                [c.to_json_dict() for c in commands])
    return commands
