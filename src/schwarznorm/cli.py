"""Command-line driver: norm searches, membership checks, theorem suites,
growth tables and radial profiles, with machine-readable deterministic
reports.

Exit codes: 0 on success/pass, 1 on usage or specification errors (and on
failed verifications), 2 on numerical-search failures.  Reports echo their
semantic configuration and are byte-identical for identical (config, seed)
regardless of --workers; wall-clock time goes to stderr only, so it cannot
perturb report diffs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivisionBySingular,
    DomainError,
    GammaDegenerate,
    SearchUnreliable,
)
from .functions import (
    AnalyticFunction,
    ClassSpec,
    ExtremalFc,
    ExtremalFcLambda,
    ExtremalFcStar,
    SchurFunction,
    from_descriptor,
    make_gallery,
    random_member,
    random_schur,
)
from .norms import hyperbolic_norm, radial_profile
from .theorems import (
    THEOREM_IDS,
    membership_status,
    growth_distortion_bounds,
    univalence_bruteforce,
    univalence_predicates,
    verify_growth_distortion,
    verify_lemmaA,
    verify_psi,
    verify_thm21_margins,
    verify_thm23,
    verify_thm24,
    verify_thm25,
)

TOOL_VERSION = "0.1.0"


@dataclass
class VerificationReport:
    """Aggregated outcome of one CLI invocation.

    ``wall_time_ms`` is kept on the object for programmatic use but is
    deliberately left out of the serialized JSON (and printed to stderr
    instead): reports must be byte-identical across reruns and worker
    counts so they can be diffed in CI.
    """

    tool_version: str
    config_echo: dict
    results: object
    overall_pass: bool
    wall_time_ms: int = field(default=0, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "config": self.config_echo,
            "results": self.results,
            "overall_pass": self.overall_pass,
        }


_GALLERY_NAMES = (
    "identity",
    "koebe",
    "half_plane",
    "mobius",
    "f2",
    "fc",
    "fc_star",
    "fc_lambda",
)


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


def _round12(obj):
    """Round every float to 12 significant digits for stable reports."""
    if isinstance(obj, float):
        return float(_fmt12(obj)) if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(report: VerificationReport, args) -> None:
    text = json.dumps(_round12(report.to_json_dict()), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    sys.stderr.write(f"wall_time_ms={report.wall_time_ms}\n")


def _emit_csv(rows: list[list], header: list[str], args) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt12(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _build_function(args) -> AnalyticFunction:
    if getattr(args, "spec", None):
        return from_descriptor(json.loads(args.spec))
    name = getattr(args, "gallery", None)
    if not name:
        raise ValueError("provide --gallery or --spec")
    if name in ("identity", "koebe", "half_plane"):
        return make_gallery(name)
    if name == "mobius":
        # default coefficients keep the pole at -1/0.3 outside the disk
        return make_gallery("mobius", a=1.0, b=0.0, c=0.3, d=1.0)
    if name == "f2":
        return ExtremalFc(2.0)
    if name == "fc":
        return ExtremalFc(args.c)
    if name == "fc_star":
        return ExtremalFcStar(args.c)
    if name == "fc_lambda":
        return ExtremalFcLambda(args.c, complex(args.lam))
    raise ValueError(f"unknown gallery name {name!r}")


def _config_echo(args, command: str) -> dict:
    spec = None
    if getattr(args, "spec", None):
        spec = json.loads(args.spec)
    elif getattr(args, "gallery", None):
        spec = {"gallery": args.gallery}
    return {
        "command": command,
        "function_spec": spec,
        "c": getattr(args, "c", None),
        "seed": getattr(args, "seed", 0),
        "samples": getattr(args, "samples", 1000),
        "grid": list(getattr(args, "grid", (256, 256))),
        "random": getattr(args, "random", 0),
        "which": getattr(args, "which", None),
        "theta": getattr(args, "theta", None),
        "format": getattr(args, "format", "json"),
    }


def _norm_kwargs(args) -> dict:
    return {"grid": tuple(args.grid), "workers": args.workers}


def _ms_since(start: float) -> int:
    return int(round(1000.0 * (time.perf_counter() - start)))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_norm(args) -> int:
    start = time.perf_counter()
    f = _build_function(args)
    which = [args.which] if args.which else ["pre_schwarzian", "schwarzian"]
    results = {}
    for w in which:
        results[w] = hyperbolic_norm(f, w, **_norm_kwargs(args)).to_json_dict()
    report = VerificationReport(
        TOOL_VERSION, _config_echo(args, "norm"), results, True, _ms_since(start)
    )
    _emit(report, args)
    return 0


def cmd_classify(args) -> int:
    start = time.perf_counter()
    f = _build_function(args)
    verdict = membership_status(f, args.c, args.samples)
    report = VerificationReport(
        TOOL_VERSION,
        _config_echo(args, "classify"),
        verdict.to_json_dict(),
        True,
        _ms_since(start),
    )
    _emit(report, args)
    return 0


def _random_members(args, variant: str, min_degree: int = 0):
    out = []
    spec = ClassSpec(args.c, variant == "F0")
    for i in range(args.random):
        degree = max(min_degree, i % 9)
        seed = args.seed * 100000 + i
        out.append((f"random[{variant},{i}]", random_member(spec, seed, degree)))
    return out


def _random_schurs(args):
    out = []
    for i in range(args.random):
        seed = args.seed * 100000 + i
        out.append((f"schur[{i}]", random_schur(seed, 1 + i % 8)))
    return out


def _target_pools(args) -> dict:
    """Random target sets built once per run so that norm-search and
    injectivity caches are shared between theorem verifiers."""
    return {
        "F": _random_members(args, "F"),
        "F0": _random_members(args, "F0"),
        # the gamma-weighted bound needs gamma < 1, i.e. degree >= 1
        "F_deg1": _random_members(args, "F", min_degree=1),
        "schur": _random_schurs(args),
    }


def _explicit_target(args):
    if getattr(args, "spec", None) or getattr(args, "gallery", None):
        return [("target", _build_function(args))]
    return []


def _run_verifier(tid: str, args, pools: dict) -> list[dict]:
    """Reports for one theorem id over its default + requested targets."""
    c = args.c
    nk = _norm_kwargs(args)
    explicit = _explicit_target(args)
    entries = []

    def add(target, report_dict, passed):
        entries.append({"target": target, "passed": passed, **report_dict})

    if tid in ("thm2.1.ii", "thm2.1.iii"):
        targets = explicit or [("fc", ExtremalFc(c)), ("identity", make_gallery("identity"))]
        targets += pools["F"]
        for label, f in targets:
            rep_ii, rep_iii = verify_thm21_margins(f, c, args.samples)
            rep = rep_ii if tid == "thm2.1.ii" else rep_iii
            add(label, rep.to_json_dict(), rep.passed)
    elif tid == "thm2.2":
        targets = explicit or [
            ("fc_lambda[1]", ExtremalFcLambda(c, 1.0)),
            ("fc_lambda[-1]", ExtremalFcLambda(c, -1.0)),
            ("identity", make_gallery("identity")),
        ]
        targets += pools["F0"]
        for label, f in targets:
            rep = verify_growth_distortion(f, c, min(args.samples, 200))
            add(label, rep.to_json_dict(), rep.passed)
    elif tid in ("thm2.3", "thm2.4"):
        verifier = verify_thm23 if tid == "thm2.3" else verify_thm24
        targets = explicit or [
            ("fc_star", ExtremalFcStar(c)),
            ("identity", make_gallery("identity")),
        ]
        targets += pools["F0"]
        for label, f in targets:
            rep = verifier(f, c, **nk)
            add(label, rep.to_json_dict(), rep.passed)
    elif tid == "thm2.5":
        targets = explicit or [("fc_star", ExtremalFcStar(c))]
        targets += pools["F_deg1"]
        for label, f in targets:
            try:
                rep = verify_thm25(f, c, args.samples, **nk)
                add(label, rep.to_json_dict(), rep.passed)
            except GammaDegenerate as exc:
                entries.append(
                    {
                        "target": label,
                        "theorem_id": "thm2.5",
                        "status": "gamma_degenerate",
                        "detail": str(exc),
                        "passed": True,  # reported, not asserted
                    }
                )
    elif tid in ("lemmaA", "psi"):
        verifier = verify_lemmaA if tid == "lemmaA" else verify_psi
        schurs = [
            ("schur[z]", SchurFunction.blaschke([0.0])),
            ("schur[0]", SchurFunction.constant_map(0.0)),
        ]
        schurs += pools["schur"]
        for label, phi in schurs:
            rep = verifier(phi, args.samples)
            add(label, rep.to_json_dict(), rep.passed)
    elif tid in ("nehari", "becker", "ahlfors-weill"):
        targets = explicit or [
            ("identity", make_gallery("identity")),
            ("koebe", make_gallery("koebe")),
            ("half_plane", make_gallery("half_plane")),
            ("fc_star", ExtremalFcStar(c)),
        ]
        targets += pools["F0"]
        for label, f in targets:
            preds = univalence_predicates(f, **nk)
            univalent = univalence_bruteforce(f)
            checks = []
            if tid == "nehari":
                if univalent:
                    checks.append(6.0 + 1e-6 - preds.schwarzian_norm)
                if preds.nehari_sufficient:
                    checks.append(0.0 if univalent else -1.0)
            elif tid == "becker":
                if preds.becker_sufficient:
                    checks.append(0.0 if univalent else -1.0)
            else:
                if preds.ahlfors_weill_k is not None:
                    checks.append(1.0 - preds.ahlfors_weill_k)
                    checks.append(0.0 if univalent else -1.0)
            margin = min(checks) if checks else 0.0
            add(
                label,
                {
                    "theorem_id": tid,
                    "schwarzian_norm": preds.schwarzian_norm,
                    "preschwarzian_norm": preds.preschwarzian_norm,
                    "univalent": univalent,
                    "ahlfors_weill_k": preds.ahlfors_weill_k,
                    "worst_margin": margin,
                },
                margin >= -1e-9,
            )
    else:
        raise ValueError(f"unknown theorem id {tid!r}")
    return entries


def cmd_verify(args) -> int:
    start = time.perf_counter()
    ids = list(THEOREM_IDS) if args.theorem == "all" else [args.theorem]
    for tid in ids:
        if tid not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {tid!r}")
    pools = _target_pools(args)
    results = []
    for tid in ids:
        results.extend(_run_verifier(tid, args, pools))
    overall = all(entry["passed"] for entry in results)
    report = VerificationReport(
        TOOL_VERSION,
        {**_config_echo(args, "verify"), "theorem": args.theorem},
        results,
        overall,
        _ms_since(start),
    )
    _emit(report, args)
    return 0 if overall else 1


def cmd_growth(args) -> int:
    rows = []
    for r in np.linspace(0.0, 0.95, args.samples):
        b = growth_distortion_bounds(args.c, float(r))
        rows.append(
            [float(r), b.distortion_low, b.distortion_high, b.growth_low, b.growth_high]
        )
    _emit_csv(
        rows,
        ["r", "distortion_low", "distortion_high", "growth_low", "growth_high"],
        args,
    )
    return 0


def cmd_profile(args) -> int:
    f = _build_function(args)
    which = args.which or "schwarzian"
    prof = radial_profile(f, args.theta, args.samples, which)
    _emit_csv([[r, v] for r, v in prof], ["r", "value"], args)
    return 0


def cmd_random_suite(args) -> int:
    start = time.perf_counter()
    results = []
    nk = _norm_kwargs(args)
    for i in range(args.random):
        seed = args.seed * 100000 + i
        f0 = random_member(ClassSpec(args.c, True), seed, i % 9)
        label = f"random[F0,{i}]"
        for rep in (verify_thm23(f0, args.c, **nk), verify_thm24(f0, args.c, **nk)):
            results.append({"target": label, "passed": rep.passed, **rep.to_json_dict()})
        f1 = random_member(ClassSpec(args.c), seed, max(1, i % 9))
        label = f"random[F,{i}]"
        verdict = membership_status(f1, args.c, args.samples)
        results.append(
            {
                "target": label,
                "passed": verdict.status != "violated",
                "membership": verdict.to_json_dict(),
            }
        )
        try:
            rep = verify_thm25(f1, args.c, args.samples, **nk)
            results.append({"target": label, "passed": rep.passed, **rep.to_json_dict()})
        except GammaDegenerate as exc:
            results.append(
                {
                    "target": label,
                    "theorem_id": "thm2.5",
                    "status": "gamma_degenerate",
                    "detail": str(exc),
                    "passed": True,
                }
            )
    overall = all(entry["passed"] for entry in results)
    report = VerificationReport(
        TOOL_VERSION,
        _config_echo(args, "random-suite"),
        results,
        overall,
        _ms_since(start),
    )
    _emit(report, args)
    return 0 if overall else 1


# ---------------------------------------------------------------------------
# Argument wiring


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nr, na = text.lower().split("x")
        return int(nr), int(na)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 256x256, got {text!r}") from exc


def _add_common(p: argparse.ArgumentParser, include_function: bool = True):
    if include_function:
        p.add_argument("--gallery", choices=_GALLERY_NAMES)
        p.add_argument("--spec", help="JSON function descriptor")
        p.add_argument("--lam", default="-1", help="lambda for fc_lambda (complex literal)")
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--grid", type=_parse_grid, default=(256, 256), metavar="RxA")
    p.add_argument("--random", type=int, default=0, metavar="N")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schwarznorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="hyperbolic norm of P_f or S_f")
    p.add_argument("--which", choices=("pre_schwarzian", "schwarzian"))
    _add_common(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("classify", help="membership verdict for F(c)")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run theorem verifiers")
    p.add_argument("theorem", help="theorem id or 'all'")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("growth", help="growth/distortion bound table (CSV)")
    _add_common(p, include_function=False)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("profile", help="radial profile of the weighted modulus (CSV)")
    p.add_argument("--which", choices=("pre_schwarzian", "schwarzian"))
    _add_common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("random-suite", help="bound suite over seeded random members")
    _add_common(p)
    p.set_defaults(func=cmd_random_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # c is validated before any computation runs
    if getattr(args, "c", None) is not None and not (0.0 < args.c <= 3.0):
        sys.stderr.write(f"error: --c must lie in (0, 3], got {args.c}\n")
        return 1
    try:
        return args.func(args)
    except SearchUnreliable as exc:
        sys.stderr.write(f"numerical search failed: {exc}\n")
        return 2
    except (
        ValueError,
        KeyError,
        DomainError,
        DivisionBySingular,
        GammaDegenerate,
        json.JSONDecodeError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
