"""Command-line front end: run verification suites, reconstructions, and
congruence checks on JSON-described domains and operators.

Reports are JSON with a stable key order so identical configurations produce
byte-identical files; a human summary goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .grid_domain import RigidMotion, congruence_check, domain_from_spec
from .operators import operator_from_spec, reconstruct, rigid_motion_fit
from .suites import SUITE_NAMES, SuiteConfig, run_suite


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_report(path: str, payload: dict) -> None:
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)  # NaN is not JSON
    with open(path, "w") as fh:
        json.dump(strict, fh, indent=2, allow_nan=False)
        fh.write("\n")


def cmd_verify(args) -> int:
    cfg = SuiteConfig(suite=args.suite, p=args.p, h=args.h, tol=args.tol,
                      seed=args.seed, spec_path=args.spec)
    checks = run_suite(cfg)
    passed = all(c["status"] == "pass" for c in checks)
    for c in checks:
        print(f"{c['status'].upper():4s} {c['check']}  defect={c['defect']:.6g}"
              f"  tol={c['tol']:.6g}  [{c['claim']}]")
    payload = {
        "suite": cfg.suite,
        "config": {"p": cfg.p, "h": cfg.h, "tol": cfg.tol, "seed": cfg.seed,
                   "spec": cfg.spec_path},
        "checks": checks,
        "passed": passed,
    }
    if args.report:
        _write_report(args.report, payload)
    print(f"suite {cfg.suite}: {'all checks passed' if passed else 'FAILURES present'}")
    return 0 if passed else 1


def cmd_reconstruct(args) -> int:
    spec = _load_json(args.spec)
    target = domain_from_spec(_load_json(args.domain)) if args.domain else None
    base = os.path.dirname(args.spec) or "."
    # handed over: the operator is freed once reconstructed, before the fit
    rec = reconstruct(operator_from_spec(spec, target=target, base_dir=base), p=args.p)
    fit = rigid_motion_fit(rec)
    n_cells = rec.g_hat.domain.n_cells
    os.makedirs(args.out, exist_ok=True)
    rec.g_hat.to_csv(os.path.join(args.out, "g_hat.csv"))
    rec.xi_hat.to_csv(os.path.join(args.out, "xi_hat.csv"))
    payload = fit.to_json_dict()
    payload["zero_set_cells"] = rec.zero_set_cells
    payload["n_cells"] = n_cells
    _write_report(os.path.join(args.out, "rigid_fit.json"), payload)
    frac = rec.zero_set_cells / n_cells
    print(f"reconstructed (g, xi) on {n_cells} cells; "
          f"zero set {rec.zero_set_cells} cells ({100 * frac:.2f}%); "
          f"rigid={fit.rigid} orthogonality_defect={fit.orthogonality_defect:.3g}")
    if frac > 0.01:
        print("zero set exceeds 1% of cells", file=sys.stderr)
        return 1
    return 0


def cmd_congruence(args) -> int:
    omega1 = domain_from_spec(_load_json(args.domain1))
    omega2 = domain_from_spec(_load_json(args.domain2))
    motion = (RigidMotion.from_json_dict(_load_json(args.motion))
              if args.motion else RigidMotion.identity(omega1.dim))
    tol = args.tol if args.tol is not None else 4.0 * min(omega1.h, omega2.h)
    ok, defect = congruence_check(omega1, omega2, motion, tol)
    print(f"symmetric-difference measure: {defect:.6g} (tol {tol:.6g}) -> "
          f"{'congruent' if ok else 'not congruent'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sil",
        description="Sobolev-grid laboratory: norms, composition operators, congruence")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("--suite", required=True, choices=SUITE_NAMES)
    pv.add_argument("--p", type=float, default=None)
    pv.add_argument("--h", type=float, default=None)
    pv.add_argument("--tol", type=float, default=None)
    pv.add_argument("--seed", type=int, default=SuiteConfig.seed)
    pv.add_argument("--spec", default=None, help="operator spec JSON file")
    pv.add_argument("--report", default=None, help="report JSON output path")
    pv.set_defaults(fn=cmd_verify)

    pr = sub.add_parser("reconstruct", help="recover (g, xi) from an operator spec")
    pr.add_argument("--spec", required=True, help="operator spec JSON file")
    pr.add_argument("--domain", default=None, help="target domain spec JSON file")
    pr.add_argument("--p", type=float, default=2.0)
    pr.add_argument("--out", required=True, help="output directory")
    pr.set_defaults(fn=cmd_reconstruct)

    pc = sub.add_parser("congruence", help="compare two domains under a rigid motion")
    pc.add_argument("--domain1", required=True)
    pc.add_argument("--domain2", required=True)
    pc.add_argument("--motion", default=None, help="rigid motion JSON file")
    pc.add_argument("--tol", type=float, default=None)
    pc.set_defaults(fn=cmd_congruence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # bad input found at any stage (a JSONDecodeError is a ValueError; a number too large
    # for float arithmetic overflows) exits 2, never 1, which is reserved for a failed check
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.fn(args)
    except (OSError, ValueError, KeyError, OverflowError, FloatingPointError) as exc:
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
