"""Seeded end-to-end benchmark of the `sil` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 15 --trace 0

One client drives `sil.cli.main` in process in a closed loop: each command
starts only after the previous one has finished.  A pass runs every command
of the workload once; passes repeat until ``--seconds`` of command time have
gone by (at least two, so repeats of the seed can be compared byte for
byte).  Every outcome is checked against the answer planted in the
generated inputs.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the last line reports
the per-layer metrics.  The metric names and units are read from
``BENCHMARK.json``.  Full results, provenance and spans go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import tracing
import verifier
import workloads

SETUP_PROBES = 15
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

BENCHMARK_FILE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    cap = _nproc()
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(min(max(current, 1), cap))


def _source_dir(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sil", "__init__.py")):
        raise SystemExit(f"no sil sources under {src}; run from the root of a checkout")
    return src


def _import_program(src: str) -> None:
    """Import `sil` from the checkout's own sources, nowhere else."""
    sys.path.insert(0, src)
    import sil
    import sil.cli  # noqa: F401  (the first command needs it; count it in set-up)
    if not os.path.realpath(sil.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported sil from {sil.__file__}, not from {src}")


# Nominal seconds of `_reference_seconds` (its typical time on a 2-vCPU
# x86_64 virtual machine); set-up time is reported in units of it.
REFERENCE_S = 0.1


def _reference_seconds() -> float:
    """Time a fixed mix of interpreter, numpy and json work.

    It depends only on this file and numpy, so a change to `sil` cannot
    move it; it moves with the speed of the CPU it runs on.
    """
    import numpy as np  # after _cap_threads

    start = time.perf_counter()
    data = np.random.default_rng(0).random(50_000)
    doc = {"cells": [[i, i * 0.5] for i in range(2_000)]}
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(16):
        total += float(np.sort(data[::-1])[1])
        total += len(json.loads(json.dumps(doc))["cells"])
    return time.perf_counter() - start


class SetupProbes:
    """Set-up time of fresh interpreters, from spawn to the first command.

    Host speed on small virtual machines moves by tens of percent within
    seconds and drifts over minutes, and process CPU time moves with it.
    So each probe child also times `_reference_seconds` once after its
    imports and once when it is ready, and the sample is its set-up time
    over the mean reference time, in units of REFERENCE_S; the plain seconds
    are kept as ``setup_wall_s``.  The probes are spread evenly over the
    measured time of the run, between commands and outside their timing.
    CLOCK_MONOTONIC is shared by all processes, so the child's reading when
    it is ready is compared with the parent's reading before the spawn.
    """

    def __init__(self, args, root: str, probe_dir: str, seconds: float):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe", probe_dir]
        self.root = root
        self.interval = seconds / SETUP_PROBES
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.next_at = 0.0

    def probe(self) -> None:
        start = time.monotonic()
        proc = subprocess.run(self.cmd, cwd=self.root, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        ready, *references = map(float, proc.stdout.split()[-3:])
        reference = statistics.fmean(references)
        self.walls.append(ready - start)
        self.scaled.append((ready - start) / reference * REFERENCE_S)

    def maybe(self, measured: float) -> None:
        """Probe for every ``interval`` of measured seconds gone by."""
        while len(self.walls) < SETUP_PROBES and measured >= self.next_at:
            self.next_at += self.interval
            self.probe()

    def finish(self) -> list[float]:
        while len(self.walls) < SETUP_PROBES:
            self.probe()
        return self.scaled


def _invoke(argv) -> tuple[int | None, str, str]:
    """Run one command in process; returns (exit code, stdout, stderr)."""
    import sil.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sil.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a measured failure, not a harness error
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def _run_pass(commands, between, recorder=None):
    """Run every command once; returns pass time, per-command times, outcomes.

    ``between(seconds timed so far)`` runs after each command, outside the
    timing; the pass time is the sum of the command times.
    """
    for cmd in commands:
        for path in cmd.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    times, raw = [], []
    for op, cmd in enumerate(commands):
        if recorder is not None:
            recorder.op = op
        t0 = time.perf_counter()
        raw.append(_invoke(cmd.argv))
        times.append(time.perf_counter() - t0)
        between(sum(times))
    outcomes = []
    for cmd, (code, out, err) in zip(commands, raw):
        files = {}
        for path in cmd.outputs:
            try:
                with open(path, "rb") as fh:
                    files[path] = fh.read()
            except FileNotFoundError:
                files[path] = None
        outcomes.append(verifier.Outcome(code, out, err, files))
    return sum(times), times, outcomes


class Tally:
    """Verifies every pass as it ends, keeping only the first pass's digests."""

    def __init__(self, commands):
        self.commands = commands
        self.first = None
        self.attempted = 0
        self.failures = []

    def add(self, index: int, outcomes) -> None:
        earlier = self.first or [None] * len(outcomes)
        for cmd, outcome, digests in zip(self.commands, outcomes, earlier):
            self.attempted += 1
            problems = verifier.check(cmd, outcome, digests)
            if problems:
                self.failures.append({"pass": index, "command": cmd.label,
                                      "problems": problems, "stderr": outcome.stderr[-2000:]})
        if self.first is None:
            self.first = [o.digests() for o in outcomes]


def _measure(commands, seconds: float, traced: bool, setup: SetupProbes):
    """Closed-loop passes for ``seconds`` of command time; traced runs
    alternate plain and traced passes."""
    tally = Tally(commands)
    plain, spanned = [], []  # (wall, per-command times) / (wall, spans)
    measured = 0.0

    def between(in_pass: float) -> None:
        setup.maybe(measured + in_pass)

    while len(plain) + len(spanned) < MIN_PASSES or measured < seconds:
        wall, times, outcomes = _run_pass(commands, between)
        measured += wall
        tally.add(len(plain) + len(spanned), outcomes)
        plain.append((wall, times))
        if traced:
            recorder = tracing.Recorder()
            uninstall = tracing.install(recorder)
            try:
                wall, _times, outcomes = _run_pass(commands, between, recorder)
            finally:
                uninstall()
            measured += wall
            tally.add(len(plain) + len(spanned), outcomes)
            spanned.append((wall, recorder.spans))
    return tally, plain, spanned


def _git_sha(root: str):
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    # stop git from finding a repository that merely encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(args, root: str, samples: dict) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "nproc": _nproc(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
        "samples": {name: len(v) for name, v in samples.items()},
    }


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = _source_dir(root)
    _cap_threads()
    if args.setup_probe:
        _import_program(src)
        first = _reference_seconds()
        workloads.generate(args.workload, args.seed, args.setup_probe)
        ready = time.monotonic() - first  # the first reference is not set-up
        print(repr(ready), repr(first), repr(_reference_seconds()), flush=True)
        os._exit(0)  # skip interpreter teardown, which is not set-up either

    with open(BENCHMARK_FILE) as fh:
        bench = json.load(fh)
    out_dir = os.path.join(root, ".perfbench_out")
    setup = SetupProbes(args, root, os.path.join(out_dir, "probe"), args.seconds)
    _import_program(src)
    work_dir = os.path.join(out_dir, "work", f"{args.workload}-{args.seed}")
    commands = workloads.generate(args.workload, args.seed, work_dir)

    tally, plain, spanned = _measure(commands, args.seconds, bool(args.trace), setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, attempted = len(tally.failures), tally.attempted
    samples = {"wall_s": [wall for wall, _ in plain], "setup_s": setup.finish(),
               "setup_wall_s": setup.walls,
               "peak_rss_mb": [peak_rss_mb], "fail_ratio": [failed / attempted]}
    for _wall, times in plain:
        totals: dict[str, float] = {}
        for cmd, t in zip(commands, times):
            totals[cmd.metric] = totals.get(cmd.metric, 0.0) + t
        for metric, t in totals.items():
            samples.setdefault(f"{metric}_s", []).append(t)
    if args.trace:
        samples["trace.wall_s"] = [wall for wall, _ in spanned]
        samples["trace.overhead_s"] = [statistics.median(samples["trace.wall_s"])
                                       - statistics.median(samples["wall_s"])]
        layers = [tracing.layer_metrics(spans) for _wall, spans in spanned]
        wanted = bench["per_layer"]
        # a layer or a command the workload does not reach reports 0
        for metric in wanted:
            if metric["name"] not in samples:
                samples[metric["name"]] = [layer.get(metric["name"], 0) for layer in layers]
    else:
        wanted = bench["end_to_end"]
    reported = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
                for m in wanted}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": reported}
    provenance = _provenance(args, root, samples)
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "provenance": provenance,
                   "summary": {k: _summary(v) for k, v in samples.items()},
                   "samples": samples, "failures": tally.failures,
                   "planted": [c.to_json_dict() for c in commands]}, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w") as fh:
            for index, (_wall, spans) in enumerate(spanned):
                for span in spans:
                    fh.write(json.dumps([index, *span]) + "\n")

    for name, values in samples.items():
        s = _summary(values)
        print(f"{name:40s} median {s['median']:.6g}  n={s['n']}  "
              f"[{s['min']:.6g}, {s['max']:.6g}]")
    print(f"{'failed/attempted':40s} {failed}/{attempted}")
    for failure in tally.failures:
        print(f"FAILED pass {failure['pass']} {failure['command']}: {failure['problems']}",
              file=sys.stderr)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
