"""The schwarznorm benchmark: three workloads in one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload norm-sweep --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* ``norm-sweep``: ``hyperbolic_norm`` of P_f and S_f over a fixed panel of
  Schur-built members of F(c) and F0(c) plus the closed-form gallery maps.
  One operation is one search.
* ``verify-all``: ``schwarznorm verify all --c 2 --random 9 --seed S`` run
  in-process.  One operation is one report entry.
* ``pointwise``: f and f' on polar grids (``univalence_bruteforce``,
  ``verify_growth_distortion``), membership sampling and the jet route
  for P_f and S_f, on seeded members with c <= 2 and the extremal maps.
  One operation is one function.

A run repeats whole rounds of the same operations until another round
would overrun ``--seconds``.  Inputs are rebuilt for every round, because
``hyperbolic_norm`` and ``univalence_bruteforce`` memoize on the function
instance.  Every output is checked against ``reference.py``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` rounds alternate between untraced and traced and the line
carries the per-layer metrics of ``tracer.py`` and the tracing overhead.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("norm-sweep", "verify-all", "pointwise")
WHICH = ("pre_schwarzian", "schwarzian")
# Latency percentiles need a tail: p90 of 100 samples has 10 beyond it.
MIN_TIMED_OPS = 100
# verify-all size: one member per Schur degree 0..8 per pool.
VERIFY_RANDOM = 9
VERIFY_C = 2.0
PANEL_C = (1.0, 2.0, 3.0)
PANEL_DEGREES = range(9)
POINTWISE_RADII = (0.3, 0.6, 0.85, 0.95)
# univalence_bruteforce grid side in pointwise: f at 50 x 50 polar nodes
# keeps a function near 0.1 s, so 100 operations fit in a run.
POINTWISE_GRID = 50
NORM_REL_TOL = 1e-6
VALUE_REL_TOL = 1e-8
# setup_s takes the median of this many fresh-interpreter imports.
IMPORT_SAMPLES = 5

# Bound in main(), after the check that the sources are there.
np = ref = sn = sn_cli = tracer = None

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import schwarznorm, schwarznorm.cli; print(time.perf_counter() - t)"
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Workloads.  Each has build() -> inputs of one round (timed as set-up),
# run(inputs) -> (op seconds, outputs, round wall seconds) and
# check(outputs) -> (failures, errors).  A failure is an operation that
# returned a wrong answer because of a known fault; an error is any other
# mismatch and makes the run incorrect.


def _schur_data(f):
    return ref.SchurData(f.c, f.variant, tuple(f.schur.zeros), complex(f.schur.rotation))


class NormSweep:
    """Searches over a fixed panel, in an order drawn from the seed.

    The Schur panel is the one ``verify --random 9 --seed 0`` draws for each
    c and variant: member seed i with degree i, i = 0..8.  It does not
    change with ``--seed``: the search under-reports some suprema and a
    failure share that moved with the seed could not be compared between
    runs.  The seed fixes the order of the searches.
    """

    def __init__(self, seed: int):
        self._oracles: dict[str, ref.Oracle] = {}
        self.ops_per_round = 2 * (len(PANEL_C) * 2 * len(PANEL_DEGREES) + 1 + 2 * len(PANEL_C))
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(self.ops_per_round)]

    def build(self):
        items = []
        for c in PANEL_C:
            for f0 in (False, True):
                for d in PANEL_DEGREES:
                    label = f"random_member(ClassSpec({c}, {f0}), {d}, {d})"
                    items.append(("schur", label, sn.random_member(sn.ClassSpec(c, f0), d, d)))
        items.append(("koebe", "Koebe()", sn.Koebe()))
        for c in PANEL_C:
            items.append(("fc", f"ExtremalFc({c})", sn.ExtremalFc(c)))
            items.append(("fc_star", f"ExtremalFcStar({c})", sn.ExtremalFcStar(c)))
        ops = [(item, which) for item in items for which in WHICH]
        return [ops[i] for i in self.order]

    def run(self, inputs):
        times, outputs = [], []
        clock = time.perf_counter
        for item, which in inputs:
            start = clock()
            est = sn.hyperbolic_norm(item[2], which)
            times.append(clock() - start)
            outputs.append((item, which, est))
        return times, outputs, sum(times)

    def check(self, outputs):
        failures, errors = [], []
        for (kind, label, f), which, est in outputs:
            name = f"{label} {which}"
            value = est.value
            if kind == "schur":
                oracle = self._oracles.get(label)
                if oracle is None:
                    oracle = self._oracles[label] = ref.boundary_oracle(_schur_data(f))
                target = oracle.value(which)
                if value < target - ref.tolerance(target, NORM_REL_TOL):
                    failures.append(
                        f"{name}: value {value:.10g} below the boundary limit {target:.10g}"
                    )
                    continue
                bound = ref.proven_upper_bounds(f.c, f.variant).get(which)
                if bound is not None and value > bound + ref.tolerance(bound, NORM_REL_TOL):
                    errors.append(f"{name}: value {value:.10g} above the proven bound {bound:.10g}")
            else:
                exact = ref.gallery_norms(kind, getattr(f, "c", None))[which]
                if abs(value - exact) > ref.tolerance(exact, NORM_REL_TOL):
                    errors.append(f"{name}: value {value:.10g}, exact norm {exact:.10g}")
            r, theta = est.argmax
            again = sn.weighted_modulus(f, r * cmath.exp(1j * theta), which)
            if abs(again - est.certified_lower) > 1e-12:
                errors.append(
                    f"{name}: weighted_modulus at the argmax {again!r} "
                    f"!= certified_lower {est.certified_lower!r}"
                )
        return failures, errors


def _verify_counts(n: int) -> dict[str, int]:
    """Entries per theorem id of ``verify all --random n``: each id reports
    its default targets, then one random pool of n members."""
    fixed = {"thm2.1.ii": 2, "thm2.1.iii": 2, "thm2.2": 3, "thm2.3": 2, "thm2.4": 2,
             "thm2.5": 1, "lemmaA": 2, "psi": 2, "nehari": 4, "becker": 4,
             "ahlfors-weill": 4}
    return {tid: k + n for tid, k in fixed.items()}


class VerifyAll:
    """``cli.main(["verify", "all", ...])`` with --workers at its default.

    Entries are timed one by one from the moments the theorem-level calls
    that finish an entry return (``CompletionClock``); the gaps between
    those moments are the entry latencies.
    """

    ENTRY_CALLS = ("verify_thm21_margins", "verify_growth_distortion", "verify_thm23",
                   "verify_thm24", "verify_thm25", "verify_lemmaA", "verify_psi",
                   "univalence_bruteforce")

    def __init__(self, seed: int):
        self.argv = ["verify", "all", "--c", str(VERIFY_C), "--random", str(VERIFY_RANDOM),
                     "--seed", str(seed)]
        self.ops_per_round = sum(_verify_counts(VERIFY_RANDOM).values())
        self.first_stdout: str | None = None

    def build(self):
        return list(self.argv)

    def run(self, argv):
        out = io.StringIO()
        clock = tracer.CompletionClock("schwarznorm.theorems", self.ENTRY_CALLS)
        with clock, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = sn_cli.main(argv)
            wall = time.perf_counter() - start
        marks = [start] + clock.times
        gaps = [b - a for a, b in zip(marks, marks[1:])]
        return gaps, (code, out.getvalue(), len(clock.times)), wall

    def check(self, outputs):
        code, text, completions = outputs
        failures, errors = [], []
        if completions != self.ops_per_round:
            # Entry latencies are read off these completions, one per entry.
            errors.append(f"{completions} entry-finishing calls, expected {self.ops_per_round}")
        if self.first_stdout is None:
            self.first_stdout = text
        elif text != self.first_stdout:
            errors.append("stdout differs from the first repetition")
        results = json.loads(text)["results"]
        counts = _verify_counts(VERIFY_RANDOM)
        if len(results) != sum(counts.values()):
            return failures, errors + [f"{len(results)} entries, expected {sum(counts.values())}"]
        ids = [tid for tid, k in counts.items() for _ in range(k)]
        for tid, entry in zip(ids, results):
            name = f"{tid} {entry.get('target')}"
            if entry.get("theorem_id") != tid:
                failures.append(f"{name}: reported as theorem_id {entry.get('theorem_id')}")
                continue
            if not entry.get("passed"):
                errors.append(f"{name}: did not pass at c = {VERIFY_C}")
            if tid in ("nehari", "becker", "ahlfors-weill") and entry.get("univalent") is not True:
                errors.append(f"{name}: not reported univalent")
            if entry.get("target") == "koebe":
                for key in ("schwarzian_norm", "preschwarzian_norm"):
                    if abs(entry[key] - 6.0) > 1e-6:
                        errors.append(f"{name}: {key} {entry[key]!r} != 6")
        if code != 0 and not failures:
            errors.append(f"verify exited {code}")
        return failures, errors


def _rel_err(values, reference) -> float:
    """Largest |value - reference| / max(1, |reference|)."""
    reference = np.asarray(reference)
    return float(np.max(np.abs(np.asarray(values) - reference) / np.maximum(1.0, np.abs(reference))))


class Pointwise:
    """f, f', P_f and S_f of seeded members of F(c) and F0(c) with c <= 2 and
    of the extremal maps f_c, f_c* and f_{c,lambda}."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.specs = []
        for f0 in (False, True):
            for d in PANEL_DEGREES:
                c = round(float(rng.uniform(0.5, 2.0)), 3)
                self.specs.append(("member", c, f0, int(rng.integers(1, 2**31)), d))
        self.specs.append(("fc", round(float(rng.uniform(0.5, 2.0)), 3)))
        self.specs.append(("fc_star", round(float(rng.uniform(0.5, 2.0)), 3)))
        self.specs.append(("fc_lambda", round(float(rng.uniform(0.5, 2.0)), 3),
                           complex(cmath.exp(2j * math.pi * rng.uniform()))))
        self.points = [
            [r * cmath.exp(2j * math.pi * rng.uniform()) for r in POINTWISE_RADII]
            for _ in self.specs
        ]
        self.ops_per_round = len(self.specs)
        self._refs: dict[int, tuple] = {}

    def build(self):
        fs = []
        for spec in self.specs:
            if spec[0] == "member":
                _, c, f0, seed, d = spec
                fs.append(sn.random_member(sn.ClassSpec(c, f0), seed, d))
            elif spec[0] == "fc":
                fs.append(sn.ExtremalFc(spec[1]))
            elif spec[0] == "fc_star":
                fs.append(sn.ExtremalFcStar(spec[1]))
            else:
                fs.append(sn.ExtremalFcLambda(spec[1], spec[2]))
        return fs

    def run(self, fs):
        times, outputs = [], []
        clock = time.perf_counter
        for f, pts in zip(fs, self.points):
            zs = np.array(pts)
            start = clock()
            out = {
                "univalent": sn.univalence_bruteforce(f, POINTWISE_GRID),
                "growth": sn.verify_growth_distortion(f, f.c, 200),
                "membership": sn.membership_status(f, f.c),
                "value": f.value(zs),
                "deriv": f.deriv(zs),
                "s_array": f.schwarzian(zs),
                "jets": [sn.jet_at(f, z, sn.DEFAULT_JET_ORDER) for z in pts],
                "p_jet": [sn.preschwarzian_at(f, z) for z in pts],
                "s_jet": [sn.schwarzian_at(f, z) for z in pts],
            }
            times.append(clock() - start)
            outputs.append((f, out))
        return times, outputs, sum(times)

    def _reference_data(self, i, f):
        spec = self.specs[i]
        if spec[0] == "member":
            return _schur_data(f)
        if spec[0] == "fc":
            return ref.SchurData(spec[1], "F", (), 1.0)
        lam = spec[2] if spec[0] == "fc_lambda" else 1.0
        return ref.SchurData(spec[1], "F0", (), lam)

    def check(self, outputs):
        errors = []
        for i, (f, out) in enumerate(outputs):
            spec = self.specs[i]
            name = f"{spec[0]}{spec[1:]}"
            data = self._reference_data(i, f)
            zs = np.array(self.points[i])
            if i not in self._refs:
                self._refs[i] = ref.ode_values(data, zs)
            f_ref, fp_ref = self._refs[i]
            in_f0 = data.variant == "F0"
            if out["univalent"] is not True:
                errors.append(f"{name}: univalence_bruteforce returned {out['univalent']}")
            if in_f0 and not out["growth"].passed:
                errors.append(f"{name}: Thm 2.2 report failed, margin {out['growth'].worst_margin}")
            if out["membership"].status == "violated":
                errors.append(f"{name}: membership reported violated")
            checks = {
                "f": _rel_err(out["value"], f_ref),
                "f'": _rel_err(out["deriv"], fp_ref),
                "jet f": _rel_err([j.coeffs[0] for j in out["jets"]], f_ref),
                "jet f'": _rel_err([j.coeffs[1] for j in out["jets"]], fp_ref),
                "P jet": _rel_err(out["p_jet"], data.p(zs)),
                "S jet vs array": _rel_err(out["s_jet"], out["s_array"]),
                "S array": _rel_err(out["s_array"], data.schwarzian(zs)),
            }
            for what, err in checks.items():
                if not err <= VALUE_REL_TOL:
                    errors.append(f"{name}: {what} off the reference by {err:.3g} (relative)")
            if in_f0:
                low, high = ref.distortion_bounds(data.c, np.abs(zs))
                fp = np.abs(out["deriv"])
                if np.any(fp < low - 1e-9) or np.any(fp > high + 1e-9):
                    errors.append(f"{name}: |f'| outside the Thm 2.2 distortion bounds")
        return [], errors


# ---------------------------------------------------------------------------
# Driver


def _import_samples() -> list[float]:
    """Import times of the package in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _run_rounds(workload, seconds: float, trace: bool):
    """Whole rounds until another one would overrun ``seconds``; with
    tracing, untraced and traced rounds alternate and come in pairs."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        round_start = time.perf_counter()
        inputs = workload.build()
        build_s = time.perf_counter() - round_start
        probe = tracer.Tracer() if traced else contextlib.nullcontext()
        cpu_start = time.process_time()
        with probe:
            times, outputs, wall = workload.run(inputs)
        cpu = time.process_time() - cpu_start
        failures, errors = workload.check(outputs)
        rounds.append({
            "traced": traced, "build_s": build_s, "wall_s": wall, "cpu_s": cpu, "op_s": times,
            "ops": workload.ops_per_round, "failures": failures, "errors": errors,
            "layers": tracer.layer_metrics(probe.stats) if traced else None,
            "duration_s": time.perf_counter() - round_start,
        })
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["duration_s"] for r in rounds)
        if trace:
            if len(rounds) % 2 == 0 and elapsed + 2 * typical > seconds:
                return rounds
        elif (sum(len(r["op_s"]) for r in rounds) >= MIN_TIMED_OPS
              and elapsed + typical > seconds):
            return rounds


def _quantile(values, q: int) -> float:
    """The q-th decile (q = 5 is the median)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _end_to_end(rounds, setup_s: float) -> dict[str, tuple[float, str]]:
    op_s = [t for r in rounds for t in r["op_s"]]
    total_wall = sum(r["wall_s"] for r in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_s": (sum(r["ops"] for r in rounds) / total_wall, "ops/s"),
        "op_p50_ms": (1e3 * _quantile(op_s, 5), "ms"),
        "op_p90_ms": (1e3 * _quantile(op_s, 9), "ms"),
    }


def _per_layer(rounds) -> dict[str, tuple[float, str]]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {
        name: (statistics.median(r["layers"][name] for r in traced), unit)
        for name, unit in tracer.LAYER_METRICS.items()
    }
    ratio = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in plain)
    out["trace.overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "schwarznorm" / "__init__.py").is_file():
        print(f"error: no schwarznorm sources under {SRC}", file=sys.stderr)
        return 2

    global np, ref, sn, sn_cli, tracer
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import schwarznorm as sn
    import schwarznorm.cli as sn_cli
    import_s = time.perf_counter() - started
    if Path(sn.__file__).resolve().parent != (SRC / "schwarznorm").resolve():
        print(f"error: imported schwarznorm from {sn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import reference as ref
    import tracer

    workload = {"norm-sweep": NormSweep, "verify-all": VerifyAll,
                "pointwise": Pointwise}[args.workload](args.seed)
    import_s = statistics.median(_import_samples())
    rounds = _run_rounds(workload, args.seconds, bool(args.trace))

    failures = [f for r in rounds for f in r["failures"]]
    errors = [e for r in rounds for e in r["errors"]]
    attempted = sum(r["ops"] for r in rounds)
    if args.trace:
        metrics = _per_layer(rounds)
    else:
        setup_s = import_s + statistics.median(r["build_s"] for r in rounds)
        metrics = _end_to_end(rounds, setup_s)

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} operations, "
          f"{len(failures)} failed")
    for line in sorted(set(failures)):
        print(f"  failed: {line}")
    for line in sorted(set(errors)):
        print(f"  WRONG: {line}")
    timed = sum(len(r["op_s"]) for r in rounds if not r["traced"])
    for name, (value, unit) in metrics.items():
        samples = f" (n={timed})" if name.startswith("op_p") else ""
        print(f"  {name} = {value:.6g} {unit}{samples}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "failures": failures, "errors": errors,
              "rounds": [{k: v for k, v in r.items() if k != "op_s"} for r in rounds]}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
