"""Byte-compare every output of two checkouts of this repository.

    python3 tools/compare_outputs.py OLD NEW [--seeds 1 2] [--work DIR]

From one fixed work directory, this runs the six ``sil verify`` suites at
their defaults with ``--report``, and every command that
``perfbench/workloads.generate`` writes for the three workloads at the given
seeds, and nine fixed commands no workload generates: ``sil reconstruct`` of
the identity on a 0.01 unit square given as ``--domain``, ``sil
reconstruct`` of ``example_4_8`` at h = 1e-3, and again at h = 2e-5, whose
50,000 target nodes span four row blocks, so that a transcendental closed form
is sampled across blocks end to end, ``sil congruence`` of two
builtin domains with no ``--motion``, so the identity default runs,
``sil congruence`` of that square less a hole whose edges lie on cell centres
against the same with the edges 1e-12 h further out, so that a cell whose
centre lies on a hole's edge, kept by the first and cut by the second, is
compared end to end, and ``sil verify --suite congruence`` of a staircase of
twelve boxes less one hole (56,050 cells at h = 4e-3, four row blocks) under a
0.3 rad rotation, whose lines have many lengths, so that the gradient
stencils' axis-0 pieces cross row blocks in the rigid fit's Jacobian and
weight gradient, and ``sil verify --suite clarkson`` at h = 0.03 (1,089 cells,
so stacks of 15 samples and a last stack of 10) and at h = 0.007 with p = 3
(20,449 cells, so one sample a stack and power sums split across row blocks),
two regimes the default run (400 cells, stacks of 40) does not reach, and at
h = 0.08 (144 cells), whose report changes when the battery's samples are
drawn in another order, where the default run's and those two do not.  Each
command runs on both checkouts back to back, OLD first for every other
command and NEW first for the rest, so drift over the run moves both sides
alike.  Each command runs as ``python -m sil.cli`` in a fresh
interpreter that imports the checkout's ``src``.  Both checkouts see the
same inputs at the same paths, so reports that record a path still compare.

It prints the first command whose exit code, stdout, stderr or written file
(report, ``rigid_fit.json``, CSV) differs and exits 1, or exits 0 when all
are byte-identical.  After that verdict it prints the line count of each
module under ``src``, OLD -> NEW, and their total, as ``wc -l`` counts them,
then lists the commands whose peak resident set size (``ru_maxrss`` from
``os.wait4``, one run each, so differences of a few tenths of a MB are noise)
moved most between OLD and NEW.  Above that list it warns when the two
checkouts' ``src`` paths differ in length, since the path length alone moves
a command's peak RSS (by about 0.1 MB).  Only the standard library is used; the
workload generator is imported from this repository's ``perfbench``.  Reading
child resource usage needs a POSIX system.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

SUITES = ("norm-calculus", "clarkson", "plaplace", "examples", "reconstruction", "congruence")
_MARKER = ".compare_outputs"
_SQUARE = {"dim": 2, "h": 0.01, "boxes": [{"lo": [0, 0], "hi": [1, 1]}]}
_TOP_RSS = 5  # commands listed by peak RSS change
# A child that subprocess spawns shares its parent's memory until it execs, and Linux
# then counts the parent's peak in the child's ru_maxrss; this tool's peak grows with
# the outputs it holds, so each command runs under this small launcher, which writes
# the command's own peak (KiB) to the file named by argv[1] and exits with its code
_LAUNCHER = """import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "sil.cli", *sys.argv[2:]], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _fixed_commands(work: str) -> list[tuple[str, list[str], tuple[str, ...]]]:
    """The nine commands no workload generates; writes their JSON inputs under ``work``."""
    def write(name, payload):
        path = os.path.join(work, name)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    out = []
    for label, spec, domain in (("identity", {"builtin": "identity"}, _SQUARE),
                                ("example_4_8", {"builtin": "example_4_8", "h": 1e-3}, None),
                                ("example_4_8_blocks", {"builtin": "example_4_8", "h": 2e-5},
                                 None)):
        out_dir = os.path.join(work, f"reconstruct_{label}")
        argv = ["reconstruct", "--spec", write(f"{label}.json", spec), "--out", out_dir]
        if domain is not None:
            argv += ["--domain", write(f"{label}_domain.json", domain)]
        out.append((f"reconstruct.{label}", argv, tuple(
            os.path.join(out_dir, name) for name in ("g_hat.csv", "xi_hat.csv", "rigid_fit.json"))))
    domains = [write(f"{name}.json", name) for name in ("example_5_4_omega1", "example_5_4_omega2")]
    out.append(("congruence.default_motion",
                ["congruence", "--domain1", domains[0], "--domain2", domains[1]], ()))
    h = _SQUARE["h"]
    lo, hi = ((k + 0.5) * h + 0.0 for k in (20, 69))  # centres as centers_of gives them
    holed = [write(f"centred_holes_{n}.json", dict(_SQUARE, subtract=[
        {"lo": [lo - off] * 2, "hi": [hi + off] * 2}])) for n, off in enumerate((0.0, 1e-12 * h))]
    out.append(("congruence.centred_holes",
                ["congruence", "--domain1", holed[0], "--domain2", holed[1]], ()))
    h, c, s = 4e-3, math.cos(0.3), math.sin(0.3)

    def box(lo, hi):  # corners in cells
        return {"lo": [k * h for k in lo], "hi": [k * h for k in hi]}

    # twelve steps 25 cells wide whose lines grow by 12.5 cells a step
    staircase = {"dim": 2, "h": h, "boxes": [box((25 * k, 0), (25 * k + 25, 125 + 12.5 * k))
                                             for k in range(12)],
                 "subtract": [box((110, 50), (160, 90))]}
    spec = write("staircase.json", {"target": staircase, "rigid": [
        {"Q": [[c, -s], [s, c]], "b": [0.25, -0.1], "sign": 1}]})
    report = os.path.join(work, "report_staircase.json")
    out.append(("congruence.staircase", ["verify", "--suite", "congruence", "--spec", spec,
                                         "--report", report], (report,)))
    for label, argv in (("clarkson.partial_stack", ["--h", "0.03"]),
                        ("clarkson.split_sums", ["--h", "0.007", "--p", "3"]),
                        ("clarkson.draw_order", ["--h", "0.08"])):
        report = os.path.join(work, f"report_{label}.json")
        out.append((label, ["verify", "--suite", "clarkson", *argv, "--report", report],
                    (report,)))
    return out


def commands(work: str, seeds) -> list[tuple[str, list[str], tuple[str, ...]]]:
    """(label, argv after ``sil``, written files) of every compared command; writes
    the workload inputs under ``work``."""
    out = []
    for suite in SUITES:
        report = os.path.join(work, f"report_{suite}.json")
        out.append((f"verify.{suite}", ["verify", "--suite", suite, "--report", report],
                    (report,)))
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            inputs = os.path.join(work, f"{workload}-{seed}")
            for cmd in workloads.generate(workload, seed, inputs):
                out.append((f"{workload}-{seed}/{cmd.label}", list(cmd.argv), cmd.outputs))
    return out + _fixed_commands(work)


def _fresh(work: str) -> None:
    """Empty ``work``, refusing a non-empty directory this tool did not make."""
    if os.path.isdir(work) and os.listdir(work):
        if not os.path.exists(os.path.join(work, _MARKER)):
            raise SystemExit(f"{work} is not empty and was not made by this tool")
        shutil.rmtree(work)
    os.makedirs(work, exist_ok=True)
    open(os.path.join(work, _MARKER), "w").close()


def _env(checkout: str) -> dict:
    """The environment that runs ``sil`` from ``checkout``'s ``src``."""
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "sil", "__init__.py")):
        raise SystemExit(f"no sil sources under {src}")
    return dict(os.environ, PYTHONPATH=src)


def _execute(env: dict, work: str, argv: list, outputs) -> tuple[list, float]:
    """One command's exit code, stdout, stderr and written files, and its peak RSS in MB."""
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    rss_file = os.path.join(work, ".peak_rss_kib")
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, rss_file, *argv], cwd=work,
                          env=env, capture_output=True)
    with open(rss_file) as fh:
        rss_mb = int(fh.read()) / 1024.0
    items = [("exit code", proc.returncode), ("stdout", proc.stdout), ("stderr", proc.stderr)]
    for path in outputs:
        data = None  # a file the command did not write
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        items.append((os.path.relpath(path, work), data))
    return items, rss_mb


def run(old: str, new: str, work: str, seeds) -> tuple[list, list]:
    """The runs of ``old`` and ``new``: per command, its label; its exit code, stdout,
    stderr and written files; and its peak RSS in MB.  Each command runs on both
    checkouts back to back, ``old`` first for the even-numbered commands and ``new``
    first for the odd ones, so drift over the whole run moves both sides alike."""
    envs = [_env(old), _env(new)]
    _fresh(work)
    runs = ([], [])
    for k, (label, argv, outputs) in enumerate(commands(work, seeds)):
        for side in ((0, 1), (1, 0))[k % 2]:
            items, rss_mb = _execute(envs[side], work, argv, outputs)
            runs[side].append((label, items, rss_mb))
            print(f"  {('OLD', 'NEW')[side]} {label}: exit {items[0][1]}, "
                  f"peak RSS {rss_mb:.2f} MB", file=sys.stderr)
    return runs


def _first_line_difference(a: bytes, b: bytes) -> str:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {n}:\n    {x[:200]!r}\n    {y[:200]!r}"
    return f"lengths {len(a)} and {len(b)} bytes"


def compare(old, new) -> str | None:
    """The first difference between two runs, described, or None."""
    for (label, items_old, _), (_, items_new, _) in zip(old, new):
        for (what, a), (_, b) in zip(items_old, items_new):
            if a != b:
                detail = (_first_line_difference(a, b) if isinstance(a, bytes)
                          and isinstance(b, bytes) else f"{a!r:.80} != {b!r:.80}")
                return f"{label}: {what} differs, {detail}"
    return None


def rss_moves(old, new) -> list[str]:
    """The commands whose peak RSS moved most from ``old`` to ``new``, described."""
    moves = sorted(((b - a, label, a, b) for (label, _, a), (_, _, b) in zip(old, new)),
                   key=lambda move: -abs(move[0]))
    return [f"  {label}: {a:.2f} -> {b:.2f} MB ({d:+.2f} MB, {d / a:+.1%})"
            for d, label, a, b in moves[:_TOP_RSS]]


def src_lines(checkout: str) -> dict[str, int]:
    """The line count of each ``.py`` module under ``checkout``'s ``src``, keyed by
    its path there."""
    src = os.path.join(os.path.abspath(checkout), "src")
    counts = {}
    for root, _, names in os.walk(src):
        for path in (os.path.join(root, n) for n in names if n.endswith(".py")):
            with open(path, "rb") as fh:
                counts[os.path.relpath(path, src)] = fh.read().count(b"\n")
    return counts


def line_moves(old: dict[str, int], new: dict[str, int]) -> list[str]:
    """Each module's line count from ``old`` to ``new``, a module one side lacks
    counting 0, then the total, described."""
    rows = [(name, old.get(name, 0), new.get(name, 0)) for name in sorted(old.keys() | new.keys())]
    rows.append(("total", sum(old.values()), sum(new.values())))
    return [f"  {name}: {a} -> {b} ({b - a:+d})" for name, a, b in rows]


def src_path_warning(old: str, new: str) -> str | None:
    """A warning when the ``src`` paths of the two checkouts differ in length, else None."""
    old_len, new_len = (len(os.path.join(os.path.abspath(c), "src")) for c in (old, new))
    if old_len == new_len:
        return None
    return (f"warning: the src paths of OLD and NEW differ in length ({old_len} and {new_len} "
            "characters), which alone moves peak RSS; run checkouts at paths of equal length")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="root of the first checkout")
    parser.add_argument("new", help="root of the second checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--work", default=os.path.join(tempfile.gettempdir(),
                                                       "sil-compare-outputs"),
                        help="the one work directory both checkouts run in; emptied first")
    args = parser.parse_args(argv)
    work = os.path.abspath(args.work)
    print(f"running {args.old} and {args.new} in {work}", file=sys.stderr)
    runs = run(args.old, args.new, work, args.seeds)
    n_files = sum(len(items) - 3 for _, items, _ in runs[0])
    difference = compare(*runs)
    print(f"DIFFERENT {difference}" if difference
          else f"identical: {len(runs[0])} commands, {n_files} written files")
    print("lines of each src/ module, OLD -> NEW:")
    print("\n".join(line_moves(src_lines(args.old), src_lines(args.new))))
    if warning := src_path_warning(args.old, args.new):
        print(warning)
    print("largest moves of peak RSS, OLD -> NEW (one run each):")
    print("\n".join(rss_moves(*runs)))
    return 1 if difference else 0


if __name__ == "__main__":
    sys.exit(main())
