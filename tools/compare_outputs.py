"""Byte-compare every output of two checkouts of this repository.

    python3 tools/compare_outputs.py OLD NEW [--seeds 1 2] [--work DIR]

For each checkout in turn, from one fixed work directory, this runs the six
``sil verify`` suites at their defaults with ``--report``, and every command
that ``perfbench/workloads.generate`` writes for the three workloads at the
given seeds.  Each command runs as ``python -m sil.cli`` in a fresh
interpreter that imports the checkout's ``src``.  Both checkouts see the
same inputs at the same paths, so reports that record a path still compare.

It prints the first command whose exit code, stdout, stderr or written file
(report, ``rigid_fit.json``, CSV) differs and exits 1, or exits 0 when all
are byte-identical.  Only the standard library is used; the workload
generator is imported from this repository's ``perfbench``.
"""

from __future__ import annotations

import argparse
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
    return out


def _fresh(work: str) -> None:
    """Empty ``work``, refusing a non-empty directory this tool did not make."""
    if os.path.isdir(work) and os.listdir(work):
        if not os.path.exists(os.path.join(work, _MARKER)):
            raise SystemExit(f"{work} is not empty and was not made by this tool")
        shutil.rmtree(work)
    os.makedirs(work, exist_ok=True)
    open(os.path.join(work, _MARKER), "w").close()


def run(checkout: str, work: str, seeds) -> list[tuple[str, list]]:
    """Per command: its label, and its exit code, stdout, stderr and written files."""
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "sil", "__init__.py")):
        raise SystemExit(f"no sil sources under {src}")
    env = dict(os.environ, PYTHONPATH=src)
    _fresh(work)
    results = []
    for label, argv, outputs in commands(work, seeds):
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        proc = subprocess.run([sys.executable, "-m", "sil.cli", *argv], cwd=work, env=env,
                              capture_output=True)
        items = [("exit code", proc.returncode), ("stdout", proc.stdout),
                 ("stderr", proc.stderr)]
        for path in outputs:
            data = None  # a file the command did not write
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
            items.append((os.path.relpath(path, work), data))
        results.append((label, items))
        print(f"  {label}: exit {proc.returncode}", file=sys.stderr)
    return results


def _first_line_difference(a: bytes, b: bytes) -> str:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {n}:\n    {x[:200]!r}\n    {y[:200]!r}"
    return f"lengths {len(a)} and {len(b)} bytes"


def compare(old, new) -> str | None:
    """The first difference between two runs, described, or None."""
    for (label, items_old), (_, items_new) in zip(old, new):
        for (what, a), (_, b) in zip(items_old, items_new):
            if a != b:
                detail = (_first_line_difference(a, b) if isinstance(a, bytes)
                          and isinstance(b, bytes) else f"{a!r:.80} != {b!r:.80}")
                return f"{label}: {what} differs, {detail}"
    return None


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
    runs = []
    for checkout in (args.old, args.new):
        print(f"running {checkout} in {work}", file=sys.stderr)
        runs.append(run(checkout, work, args.seeds))
    n_files = sum(len(items) - 3 for _, items in runs[0])
    difference = compare(*runs)
    if difference:
        print(f"DIFFERENT {difference}")
        return 1
    print(f"identical: {len(runs[0])} commands, {n_files} written files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
