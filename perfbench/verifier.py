"""Checks one `sil` command's outcome against the answer planted in its inputs.

A command counts as failed when it printed a traceback, exited with another
code than the planted one, missed a planted answer, or wrote outputs that
differ byte for byte from an earlier repeat of the same seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

TRACEBACK_MARK = "Traceback (most recent call last)"
STDOUT = "<stdout>"

# planted answers the fitted motion and the fat-Cantor defect must meet
FIT_TOLERANCE_CELLS = 2.0
N1_TOLERANCE = 0.02


@dataclass(frozen=True)
class Outcome:
    """What one invocation produced."""

    exit_code: int | None  # None when it raised
    stdout: str
    stderr: str
    outputs: dict          # path -> file bytes (None when missing)

    def digests(self) -> dict:
        """SHA-256 of every output file and of standard output."""
        files = {path: None if data is None else hashlib.sha256(data).hexdigest()
                 for path, data in self.outputs.items()}
        return {**files, STDOUT: hashlib.sha256(self.stdout.encode()).hexdigest()}


def _read_json(outcome: Outcome, path: str):
    data = outcome.outputs.get(path)
    if data is None:
        raise ValueError(f"{path} was not written")
    return json.loads(data)


def _check_suite(cmd, outcome: Outcome) -> list[str]:
    report = _read_json(outcome, cmd.outputs[0])
    if report["passed"] != (cmd.exit_code == 0):
        return [f"report says passed={report['passed']}, planted exit {cmd.exit_code}"]
    failing = [c["check"] for c in report["checks"] if c["status"] != "pass"]
    if cmd.exit_code == 0 and failing:
        return [f"checks failed: {failing}"]
    return []


def _check_pipeline(cmd, outcome: Outcome) -> list[str]:
    problems = _check_suite(cmd, outcome)
    report = _read_json(outcome, cmd.outputs[0])
    checks = {c["check"]: c for c in report["checks"]}
    verdict = checks["pipeline_verdict"]
    congruent = verdict["status"] == "pass"
    if congruent != cmd.planted["congruent"]:
        problems.append(f"verdict congruent={congruent}, planted {cmd.planted['congruent']}")
    if "components" in cmd.planted and verdict["n_components"] != cmd.planted["components"]:
        problems.append(f"{verdict['n_components']} components, planted "
                        f"{cmd.planted['components']}")
    if "n1_measure" in cmd.planted:
        n1 = checks["uncovered_source_measure"]["defect"]
        if abs(n1 - cmd.planted["n1_measure"]) > N1_TOLERANCE:
            problems.append(f"n1_measure={n1:.4f}, planted {cmd.planted['n1_measure']}")
    return problems


def _check_tabulated(cmd, outcome: Outcome) -> list[str]:
    fit = _read_json(outcome, cmd.outputs[-1])
    planted = cmd.planted
    tol = FIT_TOLERANCE_CELLS * planted["h"]
    problems = []
    if len(fit["motions"]) != 1:
        return [f"fitted {len(fit['motions'])} motions, planted 1"]
    motion = fit["motions"][0]
    q_err = max(abs(a - b) for ra, rb in zip(motion["Q"], planted["Q"]) for a, b in zip(ra, rb))
    b_err = max(abs(a - b) for a, b in zip(motion["b"], planted["b"]))
    if q_err > tol or b_err > tol:
        problems.append(f"fitted motion off by Q {q_err:.3g}, b {b_err:.3g} (tol {tol:.3g})")
    if motion["sign"] != planted["sign"]:
        problems.append(f"fitted sign {motion['sign']}, planted {planted['sign']}")
    if not fit["rigid"] or fit["zero_set_cells"] != 0 or fit["n_cells"] != planted["n_cells"]:
        problems.append("fit is not rigid, has a zero set, or covers the wrong cells")
    return problems


def _check_pair(cmd, outcome: Outcome) -> list[str]:
    verdict = "not congruent" if "-> not congruent" in outcome.stdout else (
        "congruent" if "-> congruent" in outcome.stdout else None)
    if verdict is None:
        return ["no verdict printed"]
    if (verdict == "congruent") != cmd.planted["congruent"]:
        return [f"printed {verdict!r}, planted congruent={cmd.planted['congruent']}"]
    return []


_PLANTED_CHECKS = {"suite": _check_suite, "pipeline": _check_pipeline,
                   "tabulated": _check_tabulated, "pair": _check_pair}


def check(cmd, outcome: Outcome, earlier: dict | None = None) -> list[str]:
    """Problems with ``outcome``; ``earlier`` holds the output digests of an
    earlier repeat of the same seed."""
    if TRACEBACK_MARK in outcome.stdout or TRACEBACK_MARK in outcome.stderr:
        return ["printed a traceback"]
    if outcome.exit_code != cmd.exit_code:
        return [f"exit code {outcome.exit_code}, planted {cmd.exit_code}"]
    try:
        problems = _PLANTED_CHECKS[cmd.planted["kind"]](cmd, outcome)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if earlier is not None:
        now = outcome.digests()
        changed = [p for p in (*cmd.outputs, STDOUT) if now.get(p) != earlier.get(p)]
        if changed:
            problems.append(f"outputs differ from an earlier repeat: {changed}")
    return problems
