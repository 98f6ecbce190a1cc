"""CLI surface: subcommands, exit codes, output formats, determinism."""

import json
import math
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

import schwarznorm
from schwarznorm import cli, norms, theorems
from schwarznorm.cli import main
from schwarznorm.functions import ExtremalFc
from schwarznorm.norms import _radial_grid
from schwarznorm.theorems import verify_thm21_margins


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestNorm:
    def test_fc_star_schwarzian(self, capsys):
        code, payload = run_json(
            capsys, "norm", "--gallery", "fc_star", "--c", "2", "--which", "schwarzian"
        )
        assert code == 0
        assert abs(payload["results"]["schwarzian"]["value"] - 2.0) < 1e-4

    def test_mobius_schwarzian_zero(self, capsys):
        code, payload = run_json(
            capsys, "norm", "--gallery", "mobius", "--which", "schwarzian"
        )
        assert code == 0
        assert payload["results"]["schwarzian"]["value"] == 0.0

    def test_koebe(self, capsys):
        code, payload = run_json(
            capsys, "norm", "--gallery", "koebe", "--which", "schwarzian"
        )
        assert code == 0
        assert abs(payload["results"]["schwarzian"]["value"] - 6.0) < 1e-4

    def test_both_norms_when_which_omitted(self, capsys):
        code, payload = run_json(capsys, "norm", "--gallery", "identity")
        assert code == 0
        assert set(payload["results"]) == {"pre_schwarzian", "schwarzian"}

    def test_search_failure_exit_code(self, capsys):
        code, out = run(
            capsys, "norm", "--spec", '{"kind":"polynomial","coeffs":[5]}'
        )
        assert code == 2

    def test_pole_inside_the_disk_exits_two(self, capsys):
        # z / (2z + 1): P_f = -4/(2z + 1) has a pole at -0.5, the norm is infinite
        spec = {"kind": "mobius",
                "params": {"a": [1, 0], "b": [0, 0], "c": [2, 0], "d": [1, 0]}}
        code = main(["norm", "--spec", json.dumps(spec), "--which", "pre_schwarzian"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            "numerical search failed: pre_schwarzian is singular at (r, theta) = (0.4"
        )

    @pytest.mark.parametrize("argv", [["norm"], ["verify", "thm2.3"], ["verify", "nehari"]])
    def test_pole_on_a_grid_node_exits_two(self, capsys, argv):
        # 1/z: the pole sits on the grid's r = 0 row, where the Moebius hooks
        # raise rather than give NaN; it must fail as a search, like a pole
        # between the nodes
        spec = {"kind": "mobius",
                "params": {"a": [0, 0], "b": [1, 0], "c": [1, 0], "d": [0, 0]}}
        code = main([*argv, "--spec", json.dumps(spec), "--grid", "32x32"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("numerical search failed: ")
        assert "singular on the grid: Moebius pole hit inside the disk" in captured.err

    def test_norm_estimate_fields_frozen(self, capsys):
        _, payload = run_json(
            capsys, "norm", "--gallery", "identity", "--which", "schwarzian"
        )
        assert set(payload["results"]["schwarzian"]) == {
            "value",
            "argmax",
            "boundary_attained",
            "grid_resolution",
            "refinement_iterations",
            "certified_lower",
            "extrapolated",
        }


class TestClassify:
    def test_f2_member(self, capsys):
        code, payload = run_json(capsys, "classify", "--gallery", "f2", "--c", "2")
        assert code == 0
        assert payload["results"]["status"] != "violated"

    def test_identity_margin(self, capsys):
        code, payload = run_json(
            capsys, "classify", "--gallery", "identity", "--c", "0.5"
        )
        assert code == 0
        assert abs(payload["results"]["margin"] - 0.25) < 1e-9

    def test_polynomial_violates(self, capsys):
        code, payload = run_json(
            capsys,
            "classify",
            "--spec",
            '{"kind":"polynomial","coeffs":[0,1,1]}',
            "--c",
            "2",
        )
        assert code == 0
        res = payload["results"]
        assert res["status"] == "violated"
        w = complex(res["witness"][0], res["witness"][1])
        assert abs(w - (-0.5)) < 0.15


class TestVerify:
    def test_unknown_id_exits_one(self, capsys):
        assert main(["verify", "thm9.9"]) == 1

    def test_thm23_random(self, capsys):
        code, payload = run_json(
            capsys, "verify", "thm2.3", "--c", "2", "--random", "3", "--seed", "1"
        )
        assert code == 0
        assert payload["overall_pass"]

    def test_thm21_ids_carry_their_own_report(self, capsys):
        # "thm2.1.iii" ends with "ii": the report must be chosen by exact id
        rep_ii, rep_iii = verify_thm21_margins(ExtremalFc(2.0), 2.0, 1000)
        assert rep_ii.worst_margin != pytest.approx(rep_iii.worst_margin, rel=1e-6, abs=0)
        for tid, rep in (("thm2.1.ii", rep_ii), ("thm2.1.iii", rep_iii)):
            code, payload = run_json(capsys, "verify", tid, "--gallery", "fc", "--c", "2")
            assert code == 0
            (entry,) = payload["results"]
            assert entry["theorem_id"] == tid
            assert entry["worst_margin"] == pytest.approx(rep.worst_margin, rel=1e-9, abs=0)

    def test_thm24_c3_extremal_fails_honestly(self, capsys):
        # the searched norm is 3 (attained at the origin), above c(4-c)/2
        code, payload = run_json(
            capsys, "verify", "thm2.4", "--gallery", "fc_star", "--c", "3"
        )
        assert code == 1
        assert not payload["overall_pass"]

    def test_lemma_psi(self, capsys):
        code, payload = run_json(
            capsys, "verify", "lemmaA", "--random", "3", "--samples", "300"
        )
        assert code == 0 and payload["overall_pass"]
        code, payload = run_json(
            capsys, "verify", "psi", "--random", "3", "--samples", "300"
        )
        assert code == 0 and payload["overall_pass"]

    @pytest.mark.parametrize("tid", ["lemmaA", "psi"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--gallery", "koebe"), ("--spec", '{"kind":"polynomial","coeffs":[0,1,0.1]}')],
    )
    def test_schur_checks_alone_reject_function_flags(self, capsys, tid, flag, value):
        # lemmaA and psi check Schur functions: a map named for them alone
        # would be echoed in config and never checked
        assert main(["verify", tid, flag, value, "--samples", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no --gallery or --spec" in captured.err

    def test_all_with_a_map_keeps_the_schur_defaults(self, capsys):
        code, payload = run_json(capsys, "verify", "all", "--gallery", "identity",
                                 "--samples", "100", "--grid", "16x16")
        assert code == 0
        targets = {}
        for entry in payload["results"]:
            targets.setdefault(entry["theorem_id"], []).append(entry["target"])
        assert targets.pop("lemmaA") == targets.pop("psi") == ["schur[z]", "schur[0]"]
        assert all(labels == ["target"] for labels in targets.values())
        assert len(targets) == 9

    @pytest.mark.parametrize("samples, used", [(None, 200), ("100", 100)])
    def test_thm22_caps_its_sample_count(self, capsys, samples, used):
        # each sample costs the path integrals of f and f' there, so thm2.2
        # samples min(--samples, 200) points and records that count
        argv = ["verify", "thm2.2", "--random", "1"] + (["--samples", samples] if samples else [])
        code, payload = run_json(capsys, *argv)
        assert code == 0
        assert payload["config"]["samples"] == int(samples or 1000)
        assert [e["samples"] for e in payload["results"]] == [used] * 4

    @pytest.mark.parametrize(
        "extra, searches, grids",
        [([], 8, 4), (["--gallery", "koebe"], 2, 1)],
        ids=["defaults", "koebe"],
    )
    def test_each_target_is_searched_once_per_quantity(self, capsys, monkeypatch, extra,
                                                       searches, grids):
        # The defaults are fc, identity, fc_lambda[+-1], fc_star, koebe,
        # half_plane and two Schur maps; P and S are searched on the four
        # maps that thm2.3-2.5 and the thresholds check, and brute-force
        # injectivity runs on the four threshold maps.  Koebe alone: its P
        # and S, and one grid.  Executed searches are counted, not memo hits.
        ran = {"searches": 0, "grids": 0}
        grid_starts, bruteforce = norms._grid_starts, cli.univalence_bruteforce

        def counting_grid_starts(*args):  # runs once per executed search
            ran["searches"] += 1
            return grid_starts(*args)

        def counting_bruteforce(f, gridsize=100):
            ran["grids"] += gridsize not in theorems._VERDICTS.get(f, {})
            return bruteforce(f, gridsize)

        monkeypatch.setattr(norms, "_grid_starts", counting_grid_starts)
        monkeypatch.setattr(cli, "univalence_bruteforce", counting_bruteforce)
        run(capsys, "verify", "all", "--c", "2", *extra, "--random", "0", "--grid", "16x16")
        assert ran == {"searches": searches, "grids": grids}


class TestGrowthAndProfile:
    def test_growth_table_row(self, capsys):
        code, out = run(capsys, "growth", "--c", "2", "--samples", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,distortion_low,distortion_high,growth_low,growth_high"
        row = dict(zip(lines[0].split(","), lines[11].split(",")))
        assert abs(float(row["r"]) - 0.5) < 1e-12
        assert abs(float(row["growth_low"]) - math.atan(0.5)) < 1e-9
        assert abs(float(row["growth_high"]) - math.atanh(0.5)) < 1e-9

    def test_growth_first_row(self, capsys):
        _, out = run(capsys, "growth", "--c", "1.5", "--samples", "10")
        first = out.strip().splitlines()[1].split(",")
        assert [float(v) for v in first] == [0.0, 1.0, 1.0, 0.0, 0.0]

    def test_profile_constant_for_fc_star_c2(self, capsys):
        code, out = run(
            capsys,
            "profile",
            "--gallery",
            "fc_star",
            "--c",
            "2",
            "--which",
            "schwarzian",
            "--samples",
            "32",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(abs(v - 2.0) < 1e-9 for v in values)

    def test_profile_identity_zeros(self, capsys):
        _, out = run(
            capsys, "profile", "--gallery", "identity", "--samples", "16"
        )
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == [0.0] * 16

    @pytest.mark.parametrize("which", ["pre_schwarzian", "schwarzian"])
    def test_profile_drops_a_pole_on_the_ray(self, capsys, which):
        # 1/z has its pole at r = 0, the first grid radius: that row goes and
        # the rest of the ray is printed, where P_f = -2/z and S_f = 0
        spec = '{"kind": "mobius", "params": {"a": [0, 0], "b": [1, 0], "c": [1, 0], "d": [0, 0]}}'
        code, out = run(capsys, "profile", "--spec", spec, "--samples", "5", "--which", which)
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
        assert len(rows) == 4 and all(r > 0 for r, _ in rows)
        for r, value in rows:
            want = (1.0 - r * r) * 2.0 / r if which == "pre_schwarzian" else 0.0
            assert abs(value - want) <= 1e-9 * max(1.0, want)


class TestRandomSuite:
    def test_entries_are_the_verify_checks_member_by_member(self, capsys):
        common = ["--c", "2", "--random", "3", "--seed", "3", "--samples", "300"]
        _, suite = run_json(capsys, "random-suite", *common)
        # verify lists its default targets first: two for thm2.3/2.4, one for thm2.5
        thm23 = run_json(capsys, "verify", "thm2.3", *common)[1]["results"][2:]
        thm24 = run_json(capsys, "verify", "thm2.4", *common)[1]["results"][2:]
        thm25 = run_json(capsys, "verify", "thm2.5", *common)[1]["results"][1:]
        results = suite["results"]
        assert len(results) == 4 * 3
        for i in range(3):
            entries = results[4 * i : 4 * i + 4]
            assert entries[0] == thm23[i] and entries[1] == thm24[i]
            assert entries[3] == thm25[i]
            membership = entries[2]
            assert set(membership) == {"target", "passed", "membership"}
            assert membership["target"] == thm25[i]["target"] == f"random[F,{i}]"
            assert thm23[i]["target"] == f"random[F0,{i}]"

    def test_small_suite_passes_at_c2(self, capsys):
        code, payload = run_json(
            capsys, "random-suite", "--c", "2", "--random", "2", "--seed", "3",
            "--samples", "300",
        )
        assert code == 0
        assert payload["overall_pass"]


# the flags each subcommand takes besides --out
TAKES = {
    "norm": ("--gallery", "--spec", "--lam", "--c", "--grid", "--which"),
    "classify": ("--gallery", "--spec", "--lam", "--c", "--samples"),
    "verify": ("--gallery", "--spec", "--lam", "--c", "--seed", "--samples", "--grid", "--random"),
    "growth": ("--c", "--samples"),
    "profile": ("--gallery", "--spec", "--lam", "--c", "--samples", "--theta", "--which"),
    "random-suite": ("--c", "--seed", "--samples", "--grid", "--random"),
}
POSITIONAL = {"verify": ["thm2.2"]}
# a value for every flag a subcommand had, each unlike its default and ECHO_BASE
FLAG_VALUES = {
    "--gallery": "koebe",
    "--spec": '{"kind":"polynomial","coeffs":[0,1,0.1]}',
    "--lam": "1j",
    "--c": "1.5",
    "--seed": "3",
    "--samples": "120",
    "--grid": "9x7",
    "--random": "1",
    "--theta": "0.5",
    "--which": "schwarzian",
    "--format": "csv",
}
# small runs of the JSON subcommands
ECHO_BASE = {
    "norm": ["--gallery", "fc_lambda", "--which", "pre_schwarzian", "--grid", "8x8"],
    "classify": ["--gallery", "fc_lambda", "--samples", "100"],
    "verify": [*POSITIONAL["verify"], "--gallery", "fc_lambda", "--samples", "100", "--grid", "8x8"],
    "random-suite": ["--samples", "100", "--grid", "8x8"],
}


class TestDeterminismAndIO:
    def test_rerun_gives_identical_bytes(self, capsys):
        args = ["verify", "thm2.3", "--c", "2", "--random", "2", "--seed", "9"]
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        _, out = run(
            capsys, "classify", "--gallery", "identity", "--c", "1", "--out", str(path)
        )
        assert path.read_text() == out

    def test_usage_error_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--grid", "banana"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["random-suite", "--random", "-2"],
            ["verify", "all", "--random", "-1"],
            ["verify", "thm2.1.ii", "--gallery", "fc", "--samples", "0"],
            ["growth", "--samples", "-3"],
            ["classify", "--gallery", "f2", "--samples", "1.5"],
        ],
    )
    def test_count_flags_out_of_range_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--gallery", "f2", "--samples", "99"],
            ["random-suite", "--random", "1", "--samples", "99"],
            ["profile", "--gallery", "koebe", "--samples", "1"],
        ],
    )
    def test_samples_below_a_subcommand_floor_exit_one(self, capsys, argv):
        # the parser takes --samples 1 and up; membership sampling needs 100
        # points and a profile 2, which the run reports as one error line
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_workers_flag_is_a_usage_error(self, capsys):
        # the search runs on one thread; there is no worker count to set
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--gallery", "koebe", "--workers", "2"])
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in TAKES.items()
         for flag in FLAG_VALUES if flag not in flags],
        ids=lambda v: v,
    )
    def test_random_suite_rejects_function_flags(self, capsys, command, flag):
        # every subcommand takes only the flags it reads; an unread flag must
        # not be accepted and ignored (random-suite's fixed targets, --format)
        with pytest.raises(SystemExit) as exc:
            main([command, *POSITIONAL.get(command, []), flag, FLAG_VALUES[flag]])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        # verify takes the same spec and fails on it
        assert main(["verify", "thm2.3", "--spec", '{"kind":"nope"}']) == 1

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in TAKES.items() if command in ECHO_BASE
         for flag in flags],
        ids=lambda v: v,
    )
    def test_config_echoes_every_flag(self, capsys, command, flag):
        # two runs that differ in one flag must differ in config, under the
        # flag's name (function_spec for --gallery and --spec)
        base = [command, *ECHO_BASE[command]]
        _, before = run_json(capsys, *base)
        _, after = run_json(capsys, *base, flag, FLAG_VALUES[flag])
        moved = {k for k in before["config"].keys() | after["config"].keys()
                 if before["config"].get(k) != after["config"].get(k)}
        assert moved == {"function_spec" if flag in ("--gallery", "--spec") else flag[2:]}

    def test_smallest_counts_accepted(self, capsys):
        code, payload = run_json(capsys, "random-suite", "--random", "0")
        assert code == 0 and payload["results"] == [] and payload["config"]["random"] == 0
        code, out = run(capsys, "growth", "--samples", "1")
        assert code == 0 and out.splitlines()[1:] == ["0,1,1,0,0"]

    def test_missing_function_exit_one(self, capsys):
        assert main(["norm"]) == 1

    def test_c_validation(self, capsys):
        for value in ("5", "nan", "inf"):
            assert main(["classify", "--gallery", "identity", "--c", value]) == 1

    @pytest.mark.parametrize("value", ["5", "0", "nan", "inf"])
    def test_growth_refuses_c_outside_the_class(self, capsys, value):
        # a non-finite c would fill the growth table with NaN: it must stop
        # at the class check
        assert main(["growth", "--c", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_bad_spec_json(self, capsys):
        assert main(["classify", "--spec", "{not json", "--c", "2"]) == 1

    @pytest.mark.parametrize("spec", [
        '{"kind": "polynomial"}',
        '[1, 2]',
        '"koebe"',
        '{"kind": "polynomial", "coeffs": ["a"]}',
        '{"kind": "subordination", "params": {"c": "x", "schur": '
        '{"kind": "constant", "value": [0, 0]}}}',
        '{"kind": "mobius", "params": {"a": [1], "b": [0, 0], "c": [0, 0], "d": [1, 0]}}',
    ])
    def test_malformed_spec_is_a_usage_error(self, capsys, spec):
        # the wrong shape of descriptor exits 1 as an unknown kind does,
        # with one error line and no traceback
        assert main(["norm", "--spec", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("spec", [
        '{"kind": "polynomial", "coeffs": [0, 1, NaN]}',
        '{"kind": "polynomial", "coeffs": [0, 1, [0.2, 1e999]]}',
        '{"kind": "polynomial", "coeffs": [0, 1, 1' + "0" * 400 + ']}',
        '{"kind": "mobius", "params": {"a": [1, 0], "b": [0, 0], "c": [Infinity, 0], '
        '"d": [1, 0]}}',
        '{"kind": "subordination", "params": {"c": 2, "variant": "F0", "schur": '
        '{"kind": "blaschke", "zeros": [[0.5, -Infinity]], "rotation": [1, 0]}}}',
        '{"kind": "subordination", "params": {"c": NaN, "variant": "F", "schur": '
        '{"kind": "constant", "value": [0, 0]}}}',
        '{"kind": "extremal_fc", "params": {"c": -1e999}}',
    ])
    @pytest.mark.parametrize("command", ["classify", "norm"])
    def test_non_finite_spec_numbers_are_refused(self, capsys, command, spec):
        # json.loads accepts NaN and Infinity, and 1e999 overflows to inf;
        # none may reach a map or a report
        assert main([command, "--spec", spec, "--c", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "not finite" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["classify", "--gallery", "fc_lambda", "--lam", "nan", "--c", "2"],
        ["norm", "--gallery", "fc_lambda", "--lam", "nan", "--c", "2"],
        ["profile", "--gallery", "koebe", "--theta", "nan"],
        ["profile", "--gallery", "koebe", "--theta", "inf"],
    ], ids=["classify_lam", "norm_lam", "profile_theta_nan", "profile_theta_inf"])
    def test_non_finite_lam_and_theta_are_refused(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# the theorem ids that take a --spec map
_MAP_IDS = ["thm2.1.ii", "thm2.1.iii", "thm2.2", "thm2.3", "thm2.4", "thm2.5", "nehari",
            "becker", "ahlfors-weill"]


def random_descriptor(rng, depth=0) -> dict:
    """A random function descriptor: maps of every kind, Moebius poles on
    nodes of the 8 x 8 grid, elsewhere in the disk and outside it, and
    parameters out of range."""

    def pair(scale=1.0):
        return [float(rng.normal(0.0, scale)), float(rng.normal(0.0, scale))]

    def c_value():
        return float(rng.uniform(-0.5, 3.5))

    kinds = ["identity", "koebe", "half_plane", "mobius", "mobius_node", "mobius_inside",
             "polynomial", "extremal_fc", "extremal_fc_star", "extremal_fc_lambda",
             "subordination"] + (["composition", "perturbed"] if depth < 2 else [])
    kind = kinds[rng.integers(len(kinds))]
    if kind in ("identity", "koebe", "half_plane"):
        return {"kind": kind}
    if kind.startswith("mobius"):
        if kind == "mobius_node":  # 1/(z - node), the pole on a grid node
            node = complex((_radial_grid(8) * np.exp(2j * np.pi * rng.integers(8) / 8))
                           [rng.integers(8)])
            params = {"a": [0, 0], "b": [1, 0], "c": [1, 0], "d": [-node.real, -node.imag]}
        elif kind == "mobius_inside":  # z / (z - p), the pole at p off the nodes
            p = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
            params = {"a": [1, 0], "b": [0, 0], "c": [1, 0], "d": [-p.real, -p.imag]}
        else:
            params = {k: pair() for k in "abcd"}
        return {"kind": "mobius", "params": params}
    if kind == "polynomial":
        return {"kind": "polynomial", "coeffs": [pair(0.5) for _ in range(rng.integers(1, 5))]}
    if kind in ("extremal_fc", "extremal_fc_star"):
        return {"kind": kind, "params": {"c": c_value()}}
    if kind == "extremal_fc_lambda":
        lam = np.exp(2j * np.pi * rng.random()) * (1.0 if rng.random() < 0.8 else 1.5)
        return {"kind": kind, "params": {"c": c_value(), "lam": [lam.real, lam.imag]}}
    if kind == "subordination":
        if rng.random() < 0.3:
            schur = {"kind": "constant", "value": pair(0.5)}
        else:
            zeros = [(rng.random() ** 0.5 * (1.1 if rng.random() < 0.1 else 0.95)
                      * np.exp(2j * np.pi * rng.random())) for _ in range(rng.integers(0, 5))]
            rotation = np.exp(2j * np.pi * rng.random())
            schur = {"kind": "blaschke", "zeros": [[a.real, a.imag] for a in zeros],
                     "rotation": [rotation.real, rotation.imag]}
        variant = ["F", "F0", "G"][rng.choice(3, p=[0.45, 0.45, 0.1])]
        return {"kind": kind, "params": {"c": c_value(), "variant": variant, "schur": schur}}
    if kind == "composition":
        return {"kind": kind, "params": {"outer": random_descriptor(rng, depth + 1),
                                         "inner": random_descriptor(rng, depth + 1)}}
    return {"kind": kind, "params": {"base": random_descriptor(rng, depth + 1),
                                     "delta": pair(0.3)}}


def random_argv(rng) -> list[str]:
    spec = json.dumps(random_descriptor(rng))
    c = str(round(float(rng.uniform(0.5, 3.0)), 3))
    command = ["norm", "classify", "verify"][rng.integers(3)]
    if command == "norm":
        which = [[], ["--which", "pre_schwarzian"], ["--which", "schwarzian"]][rng.integers(3)]
        return ["norm", "--spec", spec, "--grid", "8x8", *which]
    if command == "classify":
        return ["classify", "--spec", spec, "--c", c, "--samples", "100"]
    tid = "all" if rng.random() < 0.05 else _MAP_IDS[rng.integers(len(_MAP_IDS))]
    return ["verify", tid, "--spec", spec, "--c", c, "--grid", "8x8", "--samples", "1"]


def test_seeded_cli_fuzz(capsys):
    # random descriptors through cli.main: every run ends in exit 0 with a
    # passing report, exit 1 with a failed report or one error line, or
    # exit 2 with one search failure line, and never in an exception.  A
    # report may hold -inf (a singular sample's margin), which json.loads reads.
    rng = np.random.default_rng(2207)
    problems, codes = [], []
    for _ in range(150):
        argv = random_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            problems.append(f"{argv}: {traceback.format_exc()}")
            capsys.readouterr()
            continue
        out, err = capsys.readouterr()
        codes.append(code)
        if code not in (0, 1, 2) or "Traceback" in err:
            problems.append(f"{argv}: exit {code}, stderr {err!r}")
        elif out:
            report = json.loads(out)
            if code == 2 or report["overall_pass"] != (code == 0):
                problems.append(f"{argv}: exit {code} with a report")
        elif code == 0 or not err.startswith({1: "error: ", 2: "numerical search failed: "}[code]):
            problems.append(f"{argv}: exit {code}, stdout empty, stderr {err!r}")
    assert not problems, "\n".join(problems)
    assert set(codes) == {0, 1, 2}


def test_import_loads_no_scipy():
    # the library runs on numpy alone; scipy serves the tests' references
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(schwarznorm.__file__)))
    code = ("import sys, schwarznorm, schwarznorm.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout == "[]\n"


CORPUS = Path(__file__).parent / "data" / "verify_all_c2_random3_seed7_grid32.json"
CORPUS_ARGV = ["verify", "all", "--c", "2", "--random", "3", "--seed", "7", "--grid", "32x32"]


def assert_report_matches(got, want, path="$"):
    """Keys, structure, strings, booleans, ints and None exactly; floats to
    1e-9 relative, with a floor of 1 on the scale: a margin such as -4.6e-14
    is what is left of a cancellation between terms of order 1, and its own
    digits may move with the CPU's floating-point loops."""
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_report_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_report_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (path, got, want)
    else:
        assert got == want, (path, got, want)


def test_verify_report_matches_the_corpus(capsys):
    # a committed report, compared by value so that it holds across machines;
    # its 21 "univalent" entries come from univalence_bruteforce
    want = json.loads(CORPUS.read_text())
    code, got = run_json(capsys, *CORPUS_ARGV)
    assert code == 0
    assert_report_matches(got, want)
