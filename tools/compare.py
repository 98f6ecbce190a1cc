"""List every output that moved between two source trees of schwarznorm.

    python tools/compare.py [--env NAME=VALUE]... OLD_TREE NEW_TREE

Each tree runs in its own Python process with PYTHONPATH=<tree>/src and
produces a standard set of 18 outputs: the 16 CLI invocations in COMMANDS,
run through ``schwarznorm.cli.main``, the NormEstimate dicts of the 122
norm-sweep searches, and the pointwise routes: order-32 jets, P_f and S_f at
three points z != 0 and at two near the circle (radius 0.99 and 1 - 1e-6),
and f and f' at 1, 4, 200 and 1,000 points, on Koebe, f_{c,lambda} and two
Schur-built members.  The script prints every exit-code difference, every
JSON value that moved (by path, old -> new), a text diff of any other stdout
and of stderr without its wall-clock line, and exits 0 only when nothing
moved (1 when something did, 2 when a tree could not run the set).

Values are compared bit for bit, so both trees must run on the same machine:
numpy picks some floating-point loops by CPU feature.  Run against itself
(``python tools/compare.py . .``) it checks that two processes print the
same bytes.  Both trees run at once; the set took 13 s on a 2-CPU host.

``--env NAME=VALUE``, repeatable, sets an environment variable in both
trees' processes, for instance to compare the trees on another set of
numpy's floating-point loops:

    python tools/compare.py --env NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" OLD NEW
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys

# z / (2z + 1): P_f has a pole at -0.5 inside the disk, so its norm is infinite
POLE_SPEC = '{"kind": "mobius", "params": {"a": [1, 0], "b": [0, 0], "c": [2, 0], "d": [1, 0]}}'
# 1/z: the pole at 0 sits on a grid node, where the Moebius hooks raise
NODE_POLE_SPEC = '{"kind": "mobius", "params": {"a": [0, 0], "b": [1, 0], "c": [1, 0], "d": [0, 0]}}'
# a member of F0(2) built from a degree-2 Blaschke product
SUBORDINATION_SPEC = ('{"kind": "subordination", "params": {"c": 2, "variant": "F0", "schur": '
                      '{"kind": "blaschke", "zeros": [[0.5, 0], [-0.3, 0.4]], "rotation": [0, 1]}}}')

COMMANDS = [
    "verify all --c 2 --random 50 --seed 7".split(),
    "verify all --c 3 --random 9 --seed 5".split(),
    "random-suite --c 2 --random 4 --seed 3".split(),
    "verify thm2.5 --c 3 --random 20 --seed 2".split(),
    "norm --gallery koebe".split(),
    "classify --gallery f2 --c 2".split(),
    ["norm", "--spec", POLE_SPEC],
    ["verify", "thm2.4", "--spec", POLE_SPEC],
    ["verify", "nehari", "--spec", POLE_SPEC],
    ["norm", "--spec", NODE_POLE_SPEC, "--grid", "32x32"],
    ["profile", "--spec", NODE_POLE_SPEC, "--samples", "5"],
    "verify all --c 2 --gallery fc_lambda --lam 1j --random 2 --seed 1 --grid 32x32".split(),
    ["verify", "all", "--c", "2", "--spec", SUBORDINATION_SPEC, "--grid", "32x32"],
    "growth --c 2 --samples 20".split(),
    "growth --c 3".split(),
    "profile --gallery fc_star --c 2 --which schwarzian".split(),
]

# Runs in each tree; prints one JSON object.  The norm-sweep panel is the
# benchmark's: c in {1, 2, 3}, F and F0, random_member(spec, d, d) for
# d = 0..8, then Koebe, f_c and f_c*, P and S for each.
_CHILD = r"""
import contextlib, io, json, sys
import schwarznorm as sn
from schwarznorm.cli import main

runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.startswith("wall_time_ms="))
    runs.append({"exit": code, "stdout": out.getvalue(), "stderr": stderr})

maps = [(f"random_member(ClassSpec({c}, {f0}), {d}, {d})", sn.random_member(sn.ClassSpec(c, f0), d, d))
        for c in (1.0, 2.0, 3.0) for f0 in (False, True) for d in range(9)]
maps.append(("Koebe()", sn.Koebe()))
for c in (1.0, 2.0, 3.0):
    maps += [(f"ExtremalFc({c})", sn.ExtremalFc(c)), (f"ExtremalFcStar({c})", sn.ExtremalFcStar(c))]
sweep = {f"{label} {which}": sn.hyperbolic_norm(f, which).to_json_dict()
         for label, f in maps for which in ("pre_schwarzian", "schwarzian")}

# The jet route and scattered path integrals below thm2.2's 200 points,
# which no CLI invocation above reaches.
from schwarznorm._sampling import disk_samples

def pairs(values):
    return [[z.real, z.imag] for z in map(complex, values)]

pointwise = {}
for label, f in [
    ("Koebe()", sn.Koebe()),
    ("ExtremalFcLambda(2.0, 0.6+0.8j)", sn.ExtremalFcLambda(2.0, 0.6 + 0.8j)),
    ("random_member(ClassSpec(2.0, False), 4, 4)", sn.random_member(sn.ClassSpec(2.0, False), 4, 4)),
    ("random_member(ClassSpec(3.0, True), 8, 8)", sn.random_member(sn.ClassSpec(3.0, True), 8, 8)),
]:
    # the last two lie at radius 0.99 and 1 - 1e-6
    for z in (0.3 - 0.2j, -0.6 + 0.5j, 0.9j, 0.594 + 0.792j, (1 - 1e-6) * (-0.8 + 0.6j)):
        pointwise[f"{label} jet_at({z}, 32)"] = pairs(sn.jet_at(f, z, 32).coeffs)
        pointwise[f"{label} preschwarzian_at({z})"] = pairs([sn.preschwarzian_at(f, z)])
        pointwise[f"{label} schwarzian_at({z})"] = pairs([sn.schwarzian_at(f, z)])
    for count in (1, 4, 200, 1000):
        zs = disk_samples(count, 0.99)
        pointwise[f"{label} value at {count} points"] = pairs(f.value(zs))
        pointwise[f"{label} deriv at {count} points"] = pairs(f.deriv(zs))
print(json.dumps({"module": sn.__file__, "runs": runs, "norm_sweep": sweep, "pointwise": pointwise}))
"""

# The outputs besides COMMANDS: key in the child's JSON object, and title
OUTPUT_SETS = {
    "norm_sweep": "norm-sweep NormEstimate dicts",
    "pointwise": "pointwise jets, P_f, S_f, f and f'",
}

_ABSENT = object()


def _start(tree: str, extra_env: dict[str, str]) -> subprocess.Popen:
    env = {**os.environ, **extra_env, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    return subprocess.Popen([sys.executable, "-c", _CHILD, json.dumps(COMMANDS)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _load(tree: str, proc: subprocess.Popen, out: str, err: str) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: the standard set exited {proc.returncode}\n{err}")
    data = json.loads(out)
    # a package found elsewhere on sys.path would compare the wrong code
    src = os.path.join(os.path.realpath(tree), "src", "")
    if not os.path.realpath(data["module"]).startswith(src):
        raise RuntimeError(f"{tree}: imported schwarznorm from {data['module']}")
    return data


def _show(value) -> str:
    return "(absent)" if value is _ABSENT else json.dumps(value)


def _key(key: str) -> str:
    return f".{key}" if re.fullmatch(r"[A-Za-z_]\w*", key) else f"[{json.dumps(key)}]"


def json_moves(old, new, path: str = "$"):
    """Yield 'path: old -> new' for every leaf that differs in value or type."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from json_moves(old.get(key, _ABSENT), new.get(key, _ABSENT), path + _key(key))
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from json_moves(old[i] if i < len(old) else _ABSENT,
                                  new[i] if i < len(new) else _ABSENT, f"{path}[{i}]")
    elif old is _ABSENT or new is _ABSENT or repr(old) != repr(new):
        yield f"{path}: {_show(old)} -> {_show(new)}"


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return _ABSENT


def text_moves(old: str, new: str, name: str) -> list[str]:
    """JSON moves when both texts are JSON, else a unified diff."""
    if old == new:
        return []
    old_json, new_json = _parse_json(old), _parse_json(new)
    if old_json is not _ABSENT and new_json is not _ABSENT:
        return list(json_moves(old_json, new_json))
    diff = difflib.unified_diff(old.splitlines(), new.splitlines(), f"old {name}", f"new {name}",
                                lineterm="")
    return list(diff)


def compare(old: dict, new: dict) -> list[tuple[str, list[str]]]:
    """(title, moved lines) for every output that moved."""
    report = []
    for argv, a, b in zip(COMMANDS, old["runs"], new["runs"], strict=True):
        lines = [] if a["exit"] == b["exit"] else [f"exit: {a['exit']} -> {b['exit']}"]
        lines += text_moves(a["stdout"], b["stdout"], "stdout")
        lines += text_moves(a["stderr"], b["stderr"], "stderr")
        if lines:
            report.append((" ".join(argv), lines))
    for key, title in OUTPUT_SETS.items():
        lines = list(json_moves(old[key], new[key]))
        if lines:
            report.append((title, lines))
    return report


def _assignment(text: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--env", type=_assignment, action="append", default=[],
                        metavar="NAME=VALUE", help="set in both trees' processes; repeatable")
    args = parser.parse_args()
    procs = [(tree, _start(tree, dict(args.env))) for tree in (args.old_tree, args.new_tree)]
    finished = [(tree, proc, *proc.communicate()) for tree, proc in procs]
    try:
        old, new = [_load(*run) for run in finished]
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    report = compare(old, new)
    for title, lines in report:
        print(f"## {title}")
        print("\n".join(f"  {line}" for line in lines))
    moved = sum(len(lines) for _, lines in report)
    outputs = len(COMMANDS) + len(OUTPUT_SETS)
    print(f"{moved} moved line(s) in {len(report)} of {outputs} outputs"
          if report else f"nothing moved in {outputs} outputs")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
