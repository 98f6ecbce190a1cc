"""Command-line driver: norm searches, membership checks, theorem suites,
growth tables and radial profiles, with machine-readable deterministic
reports.

Each subcommand takes only the flags it reads, plus --out; any other flag
is a usage error.  Exit codes: 0 on success/pass, 1 on usage or
specification errors (and on failed verifications), 2 on numerical-search
failures.  JSON reports echo every argument of their subcommand but --out in
`config` and are byte-identical for identical config across reruns;
wall-clock time goes to stderr only, so it cannot perturb report diffs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial

import numpy as np

from . import __version__
from .errors import DivisionBySingular, DomainError, GammaDegenerate, SearchUnreliable
from .functions import (
    AnalyticFunction,
    ClassSpec,
    ExtremalFc,
    ExtremalFcLambda,
    ExtremalFcStar,
    Identity,
    Koebe,
    Mobius,
    SchurFunction,
    from_descriptor,
    half_plane,
    random_member,
    random_schur,
)
from .norms import hyperbolic_norm, radial_profile
from .theorems import (
    _bound_table,
    membership_status,
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

# --gallery name -> map built from the parsed arguments
_GALLERY = {
    "identity": lambda a: Identity(),
    "koebe": lambda a: Koebe(),
    "half_plane": lambda a: half_plane(),
    # the pole at -1/0.3 lies outside the disk
    "mobius": lambda a: Mobius(1.0, 0.0, 0.3, 1.0),
    "f2": lambda a: ExtremalFc(2.0),
    "fc": lambda a: ExtremalFc(a.c),
    "fc_star": lambda a: ExtremalFcStar(a.c),
    "fc_lambda": lambda a: ExtremalFcLambda(a.c, complex(a.lam)),
}


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


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _emit(args, results, start: float, passed: bool = True) -> int:
    """Write the JSON report and return the exit code.  Wall-clock time goes
    to stderr, so reports are byte-identical across reruns."""
    report = {
        "tool_version": __version__,
        "config": _config_echo(args),
        "results": results,
        "overall_pass": passed,
    }
    _write(json.dumps(_round12(report), indent=2, sort_keys=True) + "\n", args)
    sys.stderr.write(f"wall_time_ms={round(1000.0 * (time.perf_counter() - start))}\n")
    return 0 if passed else 1


def _emit_csv(args, rows: list) -> int:
    """Write a header row and data rows as CSV, floats at 12 digits."""
    lines = [",".join(_fmt12(v) if isinstance(v, float) else str(v) for v in row)
             for row in rows]
    _write("\n".join(lines) + "\n", args)
    return 0


def _finite(parse):
    """``parse`` for a JSON number token, raising ValueError when the
    number is not finite as a float."""

    def number(text: str):
        value = parse(text)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValueError(f"function descriptor holds a number that is not finite: {text}")
        return value

    return number


def _load_spec(text: str):
    """--spec as JSON, refusing NaN, Infinity and literals that overflow a
    float, such as 1e999, which ``json.loads`` would accept."""
    return json.loads(text, parse_float=_finite(float), parse_int=_finite(int),
                      parse_constant=_finite(float))


def _build_function(args) -> AnalyticFunction:
    """The map of --spec, a JSON descriptor built by ``from_descriptor``, or
    of --gallery.  A descriptor of the wrong shape, such as a list or a
    polynomial without coefficients, is a ValueError like an unknown kind,
    and so is one holding a number that is not finite."""
    if args.spec:
        try:
            return from_descriptor(_load_spec(args.spec))
        except (AttributeError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed function descriptor: {exc}") from exc
    if not args.gallery:
        raise ValueError("provide --gallery or --spec")
    return _GALLERY[args.gallery](args)


def _config_echo(args) -> dict:
    """The subcommand and every argument it takes but --out; --gallery and
    --spec are echoed together as function_spec."""
    echo = {"command": args.command}
    for flag in _COMMANDS[args.command][2]:
        name = flag.lstrip("-")
        if name == "gallery":
            echo["function_spec"] = (_load_spec(args.spec) if args.spec else
                                     {"gallery": args.gallery} if args.gallery else None)
        elif name != "spec":
            echo[name] = getattr(args, name)
    return echo


# ---------------------------------------------------------------------------
# Subcommands


def cmd_norm(args) -> int:
    start = time.perf_counter()
    f = _build_function(args)
    which = [args.which] if args.which else ["pre_schwarzian", "schwarzian"]
    results = {w: hyperbolic_norm(f, w, grid=args.grid).to_json_dict() for w in which}
    return _emit(args, results, start)


def cmd_classify(args) -> int:
    start = time.perf_counter()
    f = _build_function(args)
    verdict = membership_status(f, args.c, args.samples)
    return _emit(args, verdict.to_json_dict(), start)


def _target_pools(args) -> dict:
    """Every target of a run, built once so that the weak-keyed memos of norm
    searches and injectivity verdicts serve each theorem id that checks it:
    the random pools as (label, map) lists, each default target by label."""
    seeds = [args.seed * 100000 + i for i in range(args.random)]

    def members(variant: str, min_degree: int = 0) -> list:
        spec = ClassSpec(args.c, variant == "F0")
        return [(f"random[{variant},{i}]", random_member(spec, seed, max(min_degree, i % 9)))
                for i, seed in enumerate(seeds)]

    return {
        "F": members("F"),
        "F0": members("F0"),
        # the gamma-weighted bound needs gamma < 1, i.e. degree >= 1
        "F_deg1": members("F", min_degree=1),
        "schur": [(f"schur[{i}]", random_schur(seed, 1 + i % 8))
                  for i, seed in enumerate(seeds)],
        "identity": Identity(),
        "koebe": Koebe(),
        "half_plane": half_plane(),
        "fc": ExtremalFc(args.c),
        "fc_star": ExtremalFcStar(args.c),
        "fc_lambda[1]": ExtremalFcLambda(args.c, 1.0),
        "fc_lambda[-1]": ExtremalFcLambda(args.c, -1.0),
        "schur[z]": SchurFunction.blaschke([0.0]),
        "schur[0]": SchurFunction.constant_map(0.0),
    }


# Each check takes one target and the parsed arguments and returns the
# target's report dict, "passed" included.  Checks look the theorem-level
# functions up when called, and each entry ends with exactly one call to
# its theorem-level function.


def _thm21(index: int):
    # one call yields the (ii) and (iii) reports; each id keeps its own
    return lambda f, a: verify_thm21_margins(f, a.c, a.samples)[index].to_json_dict()


def _thm25(f, args) -> dict:
    try:
        return verify_thm25(f, args.c, args.samples, grid=args.grid).to_json_dict()
    except GammaDegenerate as exc:
        # reported, not asserted
        return {"theorem_id": "thm2.5", "status": "gamma_degenerate", "detail": str(exc),
                "passed": True}


def _threshold(tid: str, f, args) -> dict:
    """A univalence threshold against brute-force injectivity: a sufficient
    test (Nehari, Becker, Ahlfors-Weill) that passes on a non-injective f
    fails, and so does an injective f with ||S_f|| above Kraus-Nehari's 6."""
    preds = univalence_predicates(f, grid=args.grid)
    univalent = univalence_bruteforce(f)
    sufficient = {"nehari": preds.nehari_sufficient, "becker": preds.becker_sufficient,
                  "ahlfors-weill": preds.ahlfors_weill_k is not None}[tid]
    checks = [0.0 if univalent else -1.0] if sufficient else []
    if tid == "nehari" and univalent:
        checks.append(6.0 + 1e-6 - preds.schwarzian_norm)
    if tid == "ahlfors-weill" and sufficient:
        checks.append(1.0 - preds.ahlfors_weill_k)
    margin = min(checks, default=0.0)
    return {
        "theorem_id": tid,
        "schwarzian_norm": preds.schwarzian_norm,
        "preschwarzian_norm": preds.preschwarzian_norm,
        "univalent": univalent,
        "ahlfors_weill_k": preds.ahlfors_weill_k,
        "worst_margin": margin,
        "passed": margin >= -1e-9,
    }


# thm2.2 samples at most this many points, whatever --samples says: each
# sample costs the path integrals of f and f' there.  Each entry's
# "samples" field records the count used.
_GROWTH_SAMPLES = 200

_THRESHOLD_MAPS = ("identity", "koebe", "half_plane", "fc_star")
_UNIT_SCHURS = ("schur[z]", "schur[0]")

# theorem id -> (labels of its default targets, random pool, check), in the
# order `verify all` runs them; the checks of the "schur" pool take Schur
# functions, not analytic maps
_THEOREMS = {
    "thm2.1.ii": (("fc", "identity"), "F", _thm21(0)),
    "thm2.1.iii": (("fc", "identity"), "F", _thm21(1)),
    "thm2.2": (("fc_lambda[1]", "fc_lambda[-1]", "identity"), "F0", lambda f, a:
               verify_growth_distortion(f, a.c, min(a.samples, _GROWTH_SAMPLES)).to_json_dict()),
    "thm2.3": (("fc_star", "identity"), "F0",
               lambda f, a: verify_thm23(f, a.c, grid=a.grid).to_json_dict()),
    "thm2.4": (("fc_star", "identity"), "F0",
               lambda f, a: verify_thm24(f, a.c, grid=a.grid).to_json_dict()),
    "thm2.5": (("fc_star",), "F_deg1", _thm25),
    "lemmaA": (_UNIT_SCHURS, "schur", lambda s, a: verify_lemmaA(s, a.samples).to_json_dict()),
    "psi": (_UNIT_SCHURS, "schur", lambda s, a: verify_psi(s, a.samples).to_json_dict()),
    "nehari": (_THRESHOLD_MAPS, "F0", partial(_threshold, "nehari")),
    "becker": (_THRESHOLD_MAPS, "F0", partial(_threshold, "becker")),
    "ahlfors-weill": (_THRESHOLD_MAPS, "F0", partial(_threshold, "ahlfors-weill")),
}


def _run_verifier(tid: str, args, targets: dict) -> list[dict]:
    """Entries for one theorem id, from the run's targets: the requested map
    (but not for Schur-function checks), else the id's defaults, then its pool."""
    labels, pool, check = _THEOREMS[tid]
    if "target" in targets and pool != "schur":
        labels = ("target",)
    entries = [(label, targets[label]) for label in labels] + targets[pool]
    return [{"target": label, **check(f, args)} for label, f in entries]


def cmd_verify(args) -> int:
    start = time.perf_counter()
    if args.theorem != "all" and args.theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem id {args.theorem!r}")
    ids = _THEOREMS if args.theorem == "all" else [args.theorem]
    targets = _target_pools(args)
    if args.spec or args.gallery:
        if args.theorem != "all" and _THEOREMS[args.theorem][1] == "schur":
            raise ValueError(f"{args.theorem} checks Schur functions: no --gallery or --spec")
        targets["target"] = _build_function(args)
    results = [entry for tid in ids for entry in _run_verifier(tid, args, targets)]
    return _emit(args, results, start, all(e["passed"] for e in results))


def cmd_growth(args) -> int:
    rs = np.linspace(0.0, 0.95, args.samples)
    rows = np.column_stack([rs, _bound_table(args.c, rs).T]).tolist()
    header = ["r", "distortion_low", "distortion_high", "growth_low", "growth_high"]
    return _emit_csv(args, [header, *rows])


def cmd_profile(args) -> int:
    f = _build_function(args)
    prof = radial_profile(f, args.theta, args.samples, args.which or "schwarzian")
    return _emit_csv(args, [["r", "value"], *prof])


def _membership(f, args) -> dict:
    verdict = membership_status(f, args.c, args.samples)
    return {"passed": verdict.status != "violated", "membership": verdict.to_json_dict()}


def cmd_random_suite(args) -> int:
    """A preset of the verify table over the same pools: member by member,
    thm2.3 and thm2.4 on the F0(c) member, then membership and thm2.5 on
    the F(c) member of the same seed."""
    start = time.perf_counter()
    pools = _target_pools(args)
    steps = (("F0", "thm2.3"), ("F0", "thm2.4"),
             ("F_deg1", "membership"), ("F_deg1", "thm2.5"))
    checks = {"membership": _membership, **{tid: row[2] for tid, row in _THEOREMS.items()}}
    results = []
    for i in range(args.random):
        for pool, name in steps:
            label, f = pools[pool][i]
            results.append({"target": label, **checks[name](f, args)})
    return _emit(args, results, start, all(e["passed"] for e in results))


# ---------------------------------------------------------------------------
# Argument wiring


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nr, na = text.lower().split("x")
        return int(nr), int(na)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 256x256, got {text!r}") from exc


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value

    return integer


# argument -> add_argument keywords
_ARGUMENTS = {
    "theorem": dict(help="theorem id or 'all'"),
    "--gallery": dict(choices=tuple(_GALLERY)),
    "--spec": dict(help="JSON function descriptor"),
    "--lam": dict(default="-1", help="lambda for fc_lambda (complex literal)"),
    "--c": dict(type=float, default=2.0),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=_int_at_least(1), default=1000),
    "--grid": dict(type=_parse_grid, default=(256, 256), metavar="RxA"),
    "--random": dict(type=_int_at_least(0), default=0, metavar="N"),
    "--theta": dict(type=float, default=0.0),
    "--which": dict(choices=("pre_schwarzian", "schwarzian")),
}

_FUNCTION = ("--gallery", "--spec", "--lam")

# subcommand -> (handler, help, the arguments it reads); each also takes --out
_COMMANDS = {
    "norm": (cmd_norm, "hyperbolic norm of P_f or S_f",
             (*_FUNCTION, "--c", "--grid", "--which")),
    "classify": (cmd_classify, "membership verdict for F(c)", (*_FUNCTION, "--c", "--samples")),
    "verify": (cmd_verify, "run theorem verifiers",
               ("theorem", *_FUNCTION, "--c", "--seed", "--samples", "--grid", "--random")),
    "growth": (cmd_growth, "growth/distortion bound table (CSV)", ("--c", "--samples")),
    "profile": (cmd_profile, "radial profile of the weighted modulus (CSV)",
                (*_FUNCTION, "--c", "--samples", "--theta", "--which")),
    "random-suite": (cmd_random_suite, "bound suite over seeded random members",
                     ("--c", "--seed", "--samples", "--grid", "--random")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schwarznorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_ARGUMENTS[flag])
        p.add_argument("--out", metavar="PATH")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # c is validated before any computation runs
    if not (0.0 < args.c <= 3.0):
        sys.stderr.write(f"error: --c must lie in (0, 3], got {args.c}\n")
        return 1
    try:
        return args.func(args)
    except SearchUnreliable as exc:
        sys.stderr.write(f"numerical search failed: {exc}\n")
        return 2
    except (ValueError, KeyError, DomainError, DivisionBySingular, GammaDegenerate,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
