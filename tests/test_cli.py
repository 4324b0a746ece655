import ast
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from motkit import cost
from motkit.cli import main
from motkit.radial import LiftedCoupling


@pytest.fixture()
def pair_file(tmp_path):
    doc = {"mu": {"type": "discrete", "atoms": [[-0.5, 0.5], [0.5, 0.5]]},
           "nu": {"type": "discrete", "atoms": [[-2.0, 0.5], [2.0, 0.5]]}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def reversed_file(tmp_path):
    doc = {"mu": {"type": "discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
           "nu": {"type": "discrete", "atoms": [[0.0, 1.0]]}}
    path = tmp_path / "rev.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def overlap_file(tmp_path):
    doc = {"mu": {"type": "discrete",
                  "atoms": [[-0.5, 0.4], [0.5, 0.4], [1.0, 0.2]]},
           "nu": {"type": "discrete",
                  "atoms": [[-2.0, 0.4], [2.0, 0.4], [1.0, 0.2]]}}
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def radial_file(tmp_path):
    doc = {"dim": 2,
           "mu": {"type": "radial-grid",
                  "r": list(np.linspace(0.0, 1.0, 26)),
                  "f": [1.0 / np.pi] * 25},
           "nu": {"type": "radial-atoms", "atoms": [[2.0, 1.0]]}}
    path = tmp_path / "radial.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheckOrder:
    def test_in_order_exit_zero(self, pair_file, capsys):
        assert main(["check-order", pair_file]) == 0
        assert json.loads(capsys.readouterr().out)["in_order"] is True

    def test_reversed_exit_one(self, reversed_file, capsys):
        assert main(["check-order", reversed_file]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["worst_k"]) < 1e-9

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["check-order", str(tmp_path / "nope.json")]) == 2

    def test_malformed_file_exit_two(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["check-order", str(path)]) == 2


class TestSolve:
    def test_auto_matches_lp(self, pair_file, tmp_path, capsys):
        out_a = tmp_path / "auto.json"
        out_l = tmp_path / "lp.json"
        assert main(["solve", pair_file, "--out", str(out_a)]) == 0
        assert main(["solve", pair_file, "--method", "lp", "--out", str(out_l)]) == 0
        c_auto = json.loads(out_a.read_text())["cost"]
        c_lp = json.loads(out_l.read_text())["cost"]
        assert abs(c_auto - c_lp) <= 1e-8
        assert "method=sweep" in capsys.readouterr().out

    def test_overlap_keeps_diagonal(self, overlap_file, tmp_path):
        out = tmp_path / "c.json"
        assert main(["solve", overlap_file, "--out", str(out)]) == 0
        entries = json.loads(out.read_text())["entries"]
        assert any(x == y == 1.0 and w == 0.2 for x, y, w in entries)

    def test_bad_exponent_exit_two(self, pair_file, radial_file):
        for argv in (["solve", pair_file], ["oracle", pair_file],
                     ["solve-radial", radial_file]):
            assert main(argv + ["--p", "1.5"]) == 2

    def test_infeasible_exit_one(self, reversed_file):
        assert main(["solve", reversed_file]) == 1

    def test_forced_sweep_on_overlapping_support_exit_two(self, tmp_path):
        doc = {"mu": {"type": "discrete", "atoms": [[-0.5, 0.5], [0.5, 0.5]]},
               "nu": {"type": "discrete",
                      "atoms": [[-2.0, 0.4], [0.0, 0.2], [2.0, 0.4]]}}
        path = tmp_path / "notsep.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--method", "sweep"]) == 2
        assert main(["solve", str(path), "--method", "lp"]) == 0

    def test_deterministic_outputs(self, pair_file, tmp_path):
        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        main(["solve", pair_file, "--out", str(out1)])
        main(["solve", pair_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_grid_marginals_both_sides(self, tmp_path, capsys):
        # grid mu inside (-1, 1), grid nu on the two tails
        doc = {"mu": {"type": "grid", "lo": -1.0, "hi": 1.0, "n": 4,
                      "values": [0.75, 0.25, 0.25, 0.75]},
               "nu": {"type": "grid", "lo": -3.0, "hi": 3.0, "n": 6,
                      "values": [0.25, 0.25, 0.0, 0.0, 0.25, 0.25]}}
        path = tmp_path / "grids.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--p", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "method=sweep" in out

    @pytest.mark.parametrize("method", ["auto", "lp"])
    def test_nothing_to_move_prints_method_none(self, tmp_path, capsys, method):
        # mu = nu: all mass is common, so no solver runs whatever --method says
        atoms = {"type": "discrete", "atoms": [[0.0, 1.0]]}
        path = tmp_path / "same.json"
        path.write_text(json.dumps({"mu": atoms, "nu": atoms}))
        out = tmp_path / "c.json"
        assert main(["solve", str(path), "--method", method, "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "method=none cost=0.0"
        assert json.loads(out.read_text())["entries"] == [[0.0, 0.0, 1.0]]

    def test_maps_csv_written(self, pair_file, tmp_path):
        csv = tmp_path / "m.csv"
        main(["solve", pair_file, "--maps-csv", str(csv)])
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,S,T,lambda_minus,lambda_plus"
        assert len(lines) == 3

    @pytest.mark.parametrize("route", ["lp", "none"])
    def test_maps_csv_only_from_the_sweep(self, route, pair_file, tmp_path, capsys):
        # the maps are the sweep's; the lp and none routes write no file
        if route == "none":
            atoms = {"type": "discrete", "atoms": [[0.0, 1.0]]}
            pair_file = tmp_path / "same.json"
            pair_file.write_text(json.dumps({"mu": atoms, "nu": atoms}))
        csv = tmp_path / "m.csv"
        assert main(["solve", str(pair_file), "--method", "lp", "--maps-csv", str(csv)]) == 0
        assert capsys.readouterr().out.startswith(f"method={route} ")
        assert not csv.exists()


class TestSolveRadial:
    def test_costs_agree(self, radial_file, tmp_path, capsys):
        out = tmp_path / "lift.json"
        assert main(["solve-radial", radial_file, "--n", "200",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["dim"] == 2
        assert abs(doc["cost"] - doc["cost_ddim"]) <= 1e-9

    def test_lift_check_is_relative(self, tmp_path, monkeypatch, capsys):
        # shells at radius 1e-6 cost about 1e-6: a lifted cost 1e-6 off in
        # relative terms is 1e-12 off in absolute ones, which an absolute
        # bound of 1e-9 let through
        doc = {"dim": 2,
               "mu": {"type": "radial-atoms", "atoms": [[1e-6, 1.0]]},
               "nu": {"type": "radial-atoms", "atoms": [[5e-7, 0.5], [1.5e-6, 0.5]]}}
        path = tmp_path / "small.json"
        path.write_text(json.dumps(doc))
        assert main(["solve-radial", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(LiftedCoupling, "cost_ddim",
                            lambda lc, p: cost(lc.base, p) * (1 + 1e-6))
        assert main(["solve-radial", str(path)]) == 3
        assert "disagrees with base" in capsys.readouterr().err

    def test_origin_atom_exit_two(self, tmp_path):
        doc = {"dim": 2,
               "mu": {"type": "radial-atoms", "atoms": [[0.0, 1.0]]},
               "nu": {"type": "radial-atoms", "atoms": [[2.0, 1.0]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve-radial", str(path)]) == 2

    # json reads Infinity and NaN, and r^d or f r^d can overflow: no profile
    # below has a finite mass, which once ran on with RuntimeWarnings into
    # an error about an internal grid
    @pytest.mark.parametrize("r, f", [
        ([0.0, 1.0, float("inf")], [1.0, 1.0]),
        ([0.0, float("nan"), 1.0], [1.0, 1.0]),
        ([0.0, 1e200], [1.0]),
        ([0.0, 1.0, 1e200], [1.0, 0.0]),
        ([0.0, 1.0], [1e308]),
    ], ids=["inf-radius", "nan-radius", "mass-overflow", "zero-times-inf", "value-overflow"])
    def test_profile_without_finite_mass_exit_two(self, r, f, tmp_path, capsys):
        doc = {"dim": 2, "mu": {"type": "radial-grid", "r": r, "f": f},
               "nu": {"type": "radial-atoms", "atoms": [[2.0, 1.0]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve-radial", str(path)]) == 2
        err = capsys.readouterr().err
        assert "radius grid" in err or "profile mass" in err

    def test_dimension_past_gamma_overflow_exit_two(self, tmp_path, capsys):
        # Gamma(d/2) in the sphere's area overflows from d = 344 on; its
        # OverflowError once ended the command with a traceback and exit 1
        doc = {**RADIAL_DOC, "dim": 400}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["solve-radial", str(path)]) == 2
        assert "dimension 400 is too large" in capsys.readouterr().err

    def test_samples_summary(self, radial_file, capsys):
        assert main(["solve-radial", radial_file, "--n", "100",
                     "--samples", "20000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["samples"] == 20000
        assert summary["martingale_mean_max_se"] < 4.0

    def test_tol_reaches_the_solver(self, tmp_path, capsys):
        # the shells' masses differ by 5e-9: out of order at 1e-9, in at 1e-8
        doc = {"dim": 2,
               "mu": {"type": "radial-atoms", "atoms": [[1.0, 1.0]]},
               "nu": {"type": "radial-atoms", "atoms": [[2.0, 1.0 + 5e-9]]}}
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(doc))
        assert main(["solve-radial", str(path)]) == 1
        assert "mass gap" in capsys.readouterr().err
        assert main(["solve-radial", str(path), "--tol", "1e-8"]) == 0

    def test_induced_csv(self, radial_file, tmp_path):
        csv = tmp_path / "induced.csv"
        main(["solve-radial", radial_file, "--n", "100",
              "--induced-csv", str(csv)])
        lines = csv.read_text().splitlines()
        assert lines[0] == "marginal,position,mass"
        assert any(line.startswith("mu,") for line in lines[1:])
        assert any(line.startswith("nu,") for line in lines[1:])


class TestLiftThreads:
    """`solve-radial --samples` draws on a second thread during the solve
    and writes its files on one during the check. No thread outlives
    main(), on any path."""

    @pytest.fixture()
    def started(self, monkeypatch):
        """The threads started from here on, each counted when created."""
        started, thread = [], threading.Thread

        def counted(*args, **kwargs):
            started.append(thread(*args, **kwargs))
            return started[-1]
        monkeypatch.setattr(threading, "Thread", counted)
        return started

    def run(self, argv, capsys):
        capsys.readouterr()
        before = threading.active_count()
        rc = main(argv)
        assert threading.active_count() == before
        return rc, capsys.readouterr()

    def test_success(self, radial_file, tmp_path, started, capsys):
        out, csv = tmp_path / "lift.json", tmp_path / "induced.csv"
        rc, std = self.run(["solve-radial", radial_file, "--n", "50", "--samples", "5000",
                            "--out", str(out), "--induced-csv", str(csv)], capsys)
        assert rc == 0 and len(started) == 2
        assert std.out.startswith("cost_1d=") and len(std.out.splitlines()) == 2
        assert json.loads(out.read_text())["dim"] == 2
        assert csv.read_text().startswith("marginal,position,mass\n")

    def test_not_in_convex_order_exit_one(self, tmp_path, started, capsys):
        # the solve raises after the draws started
        doc = {"dim": 2,
               "mu": {"type": "radial-atoms", "atoms": [[1.0, 1.0]]},
               "nu": {"type": "radial-atoms", "atoms": [[2.0, 1.0 + 5e-9]]}}
        path, out = tmp_path / "gap.json", tmp_path / "lift.json"
        path.write_text(json.dumps(doc))
        rc, std = self.run(["solve-radial", str(path), "--samples", "5000",
                            "--out", str(out)], capsys)
        assert rc == 1 and len(started) == 1
        assert std.out == "" and not out.exists()

    def test_unwritable_out_exit_two(self, radial_file, tmp_path, started, capsys):
        out = str(tmp_path / "no-such-dir" / "lift.json")
        rc, std = self.run(["solve-radial", radial_file, "--n", "50", "--samples", "5000",
                            "--out", out], capsys)
        assert rc == 2 and len(started) == 2
        assert std.out == "" and out in std.err

    def test_no_samples_no_thread(self, radial_file, tmp_path, started, capsys):
        out = tmp_path / "lift.json"
        rc, _ = self.run(["solve-radial", radial_file, "--n", "50", "--samples", "0",
                          "--out", str(out)], capsys)
        assert rc == 0 and started == [] and out.exists()

    def test_impossible_sample_count_exit_two(self, radial_file, tmp_path, started, capsys):
        # numpy refuses the buffers' shape before it allocates anything; the
        # count once ran out of memory after the files and the cost line
        count, out = 2 ** 62, tmp_path / "lift.json"
        rc, std = self.run(["solve-radial", radial_file, "--n", "50", "--samples",
                            str(count), "--out", str(out)], capsys)
        assert rc == 2 and started == []
        assert std.out == "" and not out.exists()
        assert f"{count} samples in dimension 2 need {24 * count} bytes" in std.err


class TestVerify:
    def test_solver_output_clean(self, pair_file, tmp_path):
        out = tmp_path / "c.json"
        main(["solve", pair_file, "--out", str(out)])
        assert main(["verify", "--coupling", str(out),
                     "--marginals", pair_file]) == 0

    def test_corrupted_coupling_exit_one(self, pair_file, tmp_path, capsys):
        out = tmp_path / "c.json"
        main(["solve", pair_file, "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["entries"][0][2] += 1e-3
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--coupling", str(out),
                     "--marginals", pair_file]) == 1
        rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rep["residuals"]["row"] > 1e-4

    def test_planted_configuration_exit_one(self, pair_file, tmp_path, capsys):
        doc = {"entries": [[0.0, -2.0, 0.25], [0.0, 2.0, 0.25],
                           [-1.0, 1.0, 0.5]], "cost": None, "maps": None}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        pair = tmp_path / "pair2.json"
        pair.write_text(json.dumps({
            "mu": {"type": "discrete", "atoms": [[0.0, 0.5], [-1.0, 0.5]]},
            "nu": {"type": "discrete",
                   "atoms": [[-2.0, 0.25], [1.0, 0.5], [2.0, 0.25]]}}))
        assert main(["verify", "--coupling", str(bad),
                     "--marginals", str(pair)]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["forbidden"]


class TestDeformCheck:
    def test_half_exponent(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["deform-check", "--q", "0.5", "--seed", "7",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,C"
        assert len(lines) == 1 + 101

    def test_quadratic_constant(self):
        assert main(["deform-check", "--q", "2.0"]) == 0

    def test_cubic_fails(self):
        assert main(["deform-check", "--q", "3.0"]) == 1

    def test_nonpositive_exponent_exit_two(self):
        assert main(["deform-check", "--q", "-1.0"]) == 2

    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["deform-check", "--q", "0.5", "--seed", "7", "--out", str(a)])
        main(["deform-check", "--q", "0.5", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestBadNumbers:
    # out-of-range values are rejected when the arguments are parsed: argparse
    # exits with code 2 (EXIT_INPUT); valid values give these commands exit 0
    @staticmethod
    def assert_rejected(argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tol(self, tol, pair_file, tmp_path):
        out = tmp_path / "c.json"
        assert main(["solve", pair_file, "--out", str(out)]) == 0
        for argv in (["check-order", pair_file], ["solve", pair_file],
                     ["verify", "--coupling", str(out), "--marginals", pair_file]):
            assert main(argv) == 0
            self.assert_rejected(argv + ["--tol", tol])

    @pytest.mark.parametrize("argv", [
        ["solve-radial", "RADIAL", "--n", "50", "--samples", "10"],
        ["deform-check", "--q", "0.5", "--instances", "1"],
    ], ids=["solve-radial", "deform-check"])
    def test_seed(self, argv, radial_file):
        argv = [radial_file if a == "RADIAL" else a for a in argv]
        assert main(argv + ["--seed", "3"]) == 0
        self.assert_rejected(argv + ["--seed", "-1"])

    @pytest.mark.parametrize("samples", ["1", "-3"])
    def test_samples(self, samples, radial_file, capsys):
        # one sample has no standard error and a negative count no samples;
        # both are rejected before anything is solved or printed
        argv = ["solve-radial", radial_file, "--n", "50", "--samples"]
        assert main(argv + ["0"]) == 0
        capsys.readouterr()
        self.assert_rejected(argv + [samples])
        assert capsys.readouterr().out == ""

    def test_instances(self):
        assert main(["deform-check", "--q", "0.5", "--instances", "1"]) == 0
        self.assert_rejected(["deform-check", "--q", "0.5", "--instances", "0"])

    @pytest.mark.parametrize("q", ["nan", "inf", "0"])
    def test_q(self, q):
        # the range of q is checked by DeformationInstance: an input error
        assert main(["deform-check", "--q", q, "--instances", "1"]) == 2

    def test_grid(self):
        assert main(["deform-check", "--q", "0.5", "--instances", "1",
                     "--grid", "2"]) == 0
        self.assert_rejected(["deform-check", "--q", "0.5", "--grid", "1"])


class TestOracle:
    def test_min_objective(self, pair_file, capsys):
        assert main(["oracle", pair_file, "--p", "1.0"]) == 0
        assert "objective=1.875" in capsys.readouterr().out

    def test_infeasible_exit_one(self, reversed_file):
        assert main(["oracle", reversed_file]) == 1

    def test_tol_not_accepted(self, pair_file):
        # the LP has no tolerance to set; argparse rejects the option
        with pytest.raises(SystemExit) as info:
            main(["oracle", pair_file, "--tol", "-5"])
        assert info.value.code == 2

    def test_max_sense(self, pair_file, capsys):
        assert main(["oracle", pair_file, "--sense", "max"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("=")[1]) >= 1.875 - 1e-12


NU_DOC = {"type": "discrete", "atoms": [[-2.0, 0.5], [2.0, 0.5]]}


class TestMalformedInput:
    @pytest.mark.parametrize("kind, doc", [
        ("marginals", {"mu": {"type": "grid", "lo": -1.0, "hi": 1.0, "n": "abc",
                              "values": [1.0, 1.0]}, "nu": NU_DOC}),
        ("marginals", {"mu": {"type": "discrete", "atoms": [["abc", 1.0]]},
                       "nu": NU_DOC}),
        ("coupling", {"entries": [[-0.5, -2.0, 0.5]], "cost": None,
                      "maps": [[-0.5, -2.0, 2.0, 0.5]]}),
        ("coupling", {"entries": [["abc", -2.0, 0.5]], "cost": None,
                      "maps": None}),
        ("marginals", {"mu": {"type": "grid", "lo": -1.0, "hi": 1.0, "n": 2.7,
                              "values": [0.5, 0.5]}, "nu": NU_DOC}),
        ("radial", {"dim": 2.5,
                    "mu": {"type": "radial-atoms", "atoms": [[0.5, 1.0]]},
                    "nu": {"type": "radial-atoms", "atoms": [[2.0, 1.0]]}}),
    ], ids=["grid-n", "atom-position", "maps-row", "coupling-entry",
            "fractional-grid-n", "fractional-dim"])
    def test_exit_two(self, kind, doc, pair_file, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        if kind == "marginals":
            argv = ["check-order", str(path)]
        elif kind == "radial":
            argv = ["solve-radial", str(path)]
        else:
            argv = ["verify", "--coupling", str(path), "--marginals", pair_file]
        assert main(argv) == 2

    # bytes no reader can take: the UnicodeDecodeError and RecursionError
    # json.load raises on them once ended the commands with a traceback and
    # exit 1, the exit of a mathematical negative
    UNREADABLE = {"non-utf8": b"\xff\xfe{\x80}",
                  "deep-array": b"[" * 200_000 + b"]" * 200_000}

    @pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
    @pytest.mark.parametrize("use", ["check-order", "solve", "oracle", "verify-marginals",
                                     "verify-coupling", "solve-radial"])
    def test_unreadable_file_exit_two(self, use, content, pair_file, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        coupling = tmp_path / "c.json"
        coupling.write_text(json.dumps({"entries": [], "cost": None}))
        argv = {"verify-marginals": ["verify", "--coupling", str(coupling),
                                     "--marginals", str(path)],
                "verify-coupling": ["verify", "--coupling", str(path),
                                    "--marginals", pair_file],
                }.get(use, [use, str(path)])
        assert main(argv) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_nan_position_in_coupling_exit_two(self, pair_file, tmp_path):
        out = tmp_path / "pi.json"
        assert main(["solve", pair_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert main(["verify", "--coupling", str(out),
                     "--marginals", pair_file]) == 0
        doc["entries"].append([float("nan"), 2.0, 1e-20])
        out.write_text(json.dumps(doc))
        assert main(["verify", "--coupling", str(out),
                     "--marginals", pair_file]) == 2

    # every mass and position is finite, but the total mass or a mass times
    # a position is not: the order check's sums once overflowed into a
    # traceback and exit 1, and the oracle printed objective=nan with exit 0
    OVERFLOWING = {
        "total-mass": {"mu": {"type": "discrete", "atoms": [[-0.5, 1e308], [0.5, 1e308]]},
                       "nu": {"type": "discrete", "atoms": [[-2.0, 1e308], [2.0, 1e308]]}},
        "mass-times-position": {
            "mu": {"type": "discrete", "atoms": [[-1e300, 1e10], [1e300, 1e10]]},
            "nu": {"type": "discrete", "atoms": [[-2e300, 1e10], [2e300, 1e10]]}},
        "radial-total-mass": {
            "dim": 2, "mu": {"type": "radial-atoms", "atoms": [[0.5, 1e308], [0.7, 1e308]]},
            "nu": {"type": "radial-atoms", "atoms": [[2.0, 1e308], [3.0, 1e308]]}},
        "radial-mass-times-radius": {
            "dim": 2, "mu": {"type": "radial-atoms", "atoms": [[1e300, 1e10]]},
            "nu": {"type": "radial-atoms", "atoms": [[2e300, 1e10]]}},
    }

    @pytest.mark.parametrize("command, case", [
        (command, case) for case in ("total-mass", "mass-times-position")
        for command in ("check-order", "solve", "oracle")]
        + [("solve-radial", "radial-total-mass"), ("solve-radial", "radial-mass-times-radius")])
    def test_non_finite_totals_exit_two(self, command, case, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(self.OVERFLOWING[case]))
        assert main([command, str(path)]) == 2
        assert "must be finite" in capsys.readouterr().err

    # every position and first moment is finite, but some gaps |x - y| pass
    # the float range: the oracle printed objective=nan with exit 0, and
    # solve exited 0 with the cost of an LP whose costs held NaN
    @pytest.mark.parametrize("argv", [["oracle"], ["oracle", "--sense", "max"], ["solve"]])
    def test_overflowing_cost_exit_two(self, argv, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "mu": {"type": "discrete", "atoms": [[-8e307, 0.5], [8e307, 0.5]]},
            "nu": {"type": "discrete", "atoms": [[-1.2e308, 0.25], [-0.4e308, 0.25],
                                                 [0.4e308, 0.25], [1.2e308, 0.25]]}}))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "overflows the float range" in captured.err

    def test_nan_in_maps_exit_two(self, pair_file, tmp_path):
        out = tmp_path / "pi.json"
        assert main(["solve", pair_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["maps"][-1][1] = float("nan")
        out.write_text(json.dumps(doc))
        assert main(["verify", "--coupling", str(out),
                     "--marginals", pair_file]) == 2


class TestUnwritableOutput:
    """An output path in a directory that does not exist. Its
    FileNotFoundError once ended every command with a traceback and exit 1."""

    @pytest.fixture()
    def argvs(self, pair_file, radial_file, tmp_path):
        coupling = tmp_path / "c.json"
        assert main(["solve", pair_file, "--out", str(coupling)]) == 0
        return {
            "check-order": ["check-order", pair_file],
            "solve": ["solve", pair_file],
            "solve-radial": ["solve-radial", radial_file, "--n", "50"],
            "verify": ["verify", "--coupling", str(coupling), "--marginals", pair_file],
            "deform-check": ["deform-check", "--q", "0.5", "--instances", "1",
                             "--grid", "3"],
            "oracle": ["oracle", pair_file],
        }

    @pytest.mark.parametrize("command, option", [
        ("check-order", "--out"), ("solve", "--out"), ("solve-radial", "--out"),
        ("verify", "--out"), ("deform-check", "--out"), ("oracle", "--out"),
        ("solve", "--maps-csv"), ("solve-radial", "--induced-csv")])
    def test_exit_two(self, command, option, argvs, tmp_path, capsys):
        out = str(tmp_path / "no-such-dir" / "out")
        capsys.readouterr()
        assert main(argvs[command] + [option, out]) == 2
        assert out in capsys.readouterr().err


PAIR_DOC = {"mu": {"type": "discrete", "atoms": [[0.0, 1.0]]},
            "nu": {"type": "discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}}
ENTRIES = [[0.0, -1.0, 0.5], [0.0, 1.0, 0.5]]
RADIAL_DOC = {"dim": 2, "mu": {"type": "radial-grid", "r": [0.0, 1.0], "f": [1.0 / np.pi]},
              "nu": {"type": "radial-atoms", "atoms": [[2.0, 1.0]]}}


class TestStrictNumbers:
    """Atoms are exactly 2 JSON numbers, coupling entries exactly 3 and map
    rows exactly 5; grid values, r and f hold numbers only. Strings and
    booleans are not numbers. Each file below was read without a word, and
    its command exited 0, before the readers checked this."""

    @staticmethod
    def _write(tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_clean_files_exit_zero(self, tmp_path):
        pair = self._write(tmp_path, "pair.json", PAIR_DOC)
        pi = self._write(tmp_path, "pi.json", {"entries": ENTRIES, "cost": None})
        assert main(["check-order", pair]) == 0
        assert main(["verify", "--coupling", pi, "--marginals", pair]) == 0
        assert main(["solve-radial", self._write(tmp_path, "r.json", RADIAL_DOC)]) == 0

    def test_atom_of_three_numbers_exit_two(self, tmp_path):
        doc = {**PAIR_DOC, "mu": {"type": "discrete", "atoms": [[0.0, 1.0, 99]]}}
        pair = self._write(tmp_path, "pair.json", doc)
        assert main(["check-order", pair]) == 2
        assert main(["solve", pair]) == 2

    @pytest.mark.parametrize("entry", [[0.0, 1.0, 0.5, 7], [0.0, "1.0", 0.5],
                                       [0.0, True, 0.5]],
                             ids=["four-numbers", "string", "boolean"])
    def test_entry_exit_two(self, entry, tmp_path):
        pair = self._write(tmp_path, "pair.json", PAIR_DOC)
        pi = self._write(tmp_path, "pi.json",
                         {"entries": [ENTRIES[0], entry], "cost": None})
        assert main(["verify", "--coupling", pi, "--marginals", pair]) == 2

    @pytest.mark.parametrize("where, value", [
        ("grid values", ["1.0", 1.0]), ("r", [0.0, True]), ("f", ["1.0"]),
        ("radial atom", [[2.0, 1.0, 0.0]])])
    def test_list_of_numbers_only_exit_two(self, where, value, tmp_path):
        if where == "grid values":
            doc = {**PAIR_DOC, "mu": {"type": "grid", "lo": -0.5, "hi": 0.5, "n": 2,
                                      "values": value}}
            assert main(["check-order", self._write(tmp_path, "g.json", doc)]) == 2
            return
        if where == "radial atom":
            doc = {**RADIAL_DOC, "nu": {"type": "radial-atoms", "atoms": value}}
        else:
            doc = {**RADIAL_DOC, "mu": {**RADIAL_DOC["mu"], where: value}}
        assert main(["solve-radial", self._write(tmp_path, "r.json", doc)]) == 2


class TestLargeScales:
    """Positions past about 1.3e154 square to infinity. No command squares
    one: each exits 0 on them, and warns of no overflow (the suite makes a
    RuntimeWarning an error)."""

    def test_solve_radial_is_exact_under_powers_of_two(self, tmp_path, capsys):
        # a power of two scales every draw exactly, so the summary keeps its
        # bytes and, at p = 1, the cost scales exactly
        lines = {}
        for k in (0, 600, 1000):
            s = 2.0 ** k
            doc = {"dim": 3,
                   "mu": {"type": "radial-atoms", "atoms": [[1.0 * s, 0.6], [2.0 * s, 0.4]]},
                   "nu": {"type": "radial-atoms", "atoms": [[0.5 * s, 0.5], [3.0 * s, 0.5]]}}
            path = tmp_path / f"shells{k}.json"
            path.write_text(json.dumps(doc))
            assert main(["solve-radial", str(path), "--samples", "20000"]) == 0
            lines[k] = capsys.readouterr().out.splitlines()
        base = float(lines[0][0].split()[0].removeprefix("cost_1d="))
        for k in (600, 1000):
            c1, cd = (float(part.split("=")[1]) for part in lines[k][0].split())
            assert c1 == cd == base * 2.0 ** k
            assert lines[k][1] == lines[0][1]

    @pytest.mark.parametrize("s", [1e150, 1e160, 1e300])
    def test_one_dimensional_commands(self, s, tmp_path, capsys):
        doc = {"mu": {"type": "discrete", "atoms": [[-s, 1.0], [s, 1.0]]},
               "nu": {"type": "discrete", "atoms": [[-2 * s, 1.0], [2 * s, 1.0]]}}
        pair, out = str(tmp_path / "pair.json"), str(tmp_path / "c.json")
        Path(pair).write_text(json.dumps(doc))
        assert main(["check-order", pair]) == 0
        for method in ("sweep", "lp"):
            assert main(["solve", pair, "--method", method, "--out", out]) == 0
            assert main(["verify", "--coupling", out, "--marginals", pair]) == 0
        assert main(["oracle", pair]) == 0


    # within a factor of two of the float maximum, a sum or a difference of
    # two positions passes the float range: the sweep's slope overflowed
    # (solve and solve-radial exited 3 with a barycenter residual of 7e307),
    # so did the sum of the ends of its interval (exit 3, nu mass left over),
    # and so did the atom rule's gap (solve-radial warned of an overflow);
    # a grid's lo + hi and hi - lo overflowed its midpoints and cell width
    # (exit 2, "positions and masses must be finite")
    NEAR_MAX = {
        "slope": ("solve", {
            "mu": {"type": "discrete", "atoms": [[-5e307, 0.5], [5e307, 0.5]]},
            "nu": {"type": "discrete", "atoms": [[-9.5e307, 0.5], [9.5e307, 0.5]]}}),
        "centre": ("solve", {
            "mu": {"type": "discrete", "atoms": [[1.15e308, 0.5], [1.25e308, 0.5]]},
            "nu": {"type": "discrete", "atoms": [[1e308, 0.5], [1.4e308, 0.5]]}}),
        "radial-slope": ("solve-radial", {
            "dim": 3, "mu": {"type": "radial-atoms", "atoms": [[5e307, 1.0]]},
            "nu": {"type": "radial-atoms", "atoms": [[9.5e307, 1.0]]}}),
        "radial-atom-rule": ("solve-radial", {
            "dim": 3, "mu": {"type": "radial-atoms", "atoms": [[5e307, 1.0]]},
            "nu": {"type": "radial-atoms", "atoms": [[2.5e307, 0.5], [9.5e307, 0.5]]}}),
        "grid": ("solve", {
            "mu": {"type": "grid", "lo": 1.1e308, "hi": 1.3e308, "n": 2,
                   "values": [5e-308, 5e-308]},
            "nu": {"type": "discrete", "atoms": [[1e308, 0.5], [1.4e308, 0.5]]}}),
    }

    @pytest.mark.parametrize("case", list(NEAR_MAX))
    def test_near_the_float_maximum(self, case, tmp_path):
        command, doc = self.NEAR_MAX[case]
        pair, out = str(tmp_path / "pair.json"), str(tmp_path / "c.json")
        Path(pair).write_text(json.dumps(doc))
        assert main([command, pair, "--out", out]) == 0
        if command == "solve":
            assert main(["verify", "--coupling", out, "--marginals", pair]) == 0


class TestImports:
    def test_cli_and_lp_do_not_import_scipy(self):
        # scipy.optimize alone adds tens of MB and about half a second to
        # every CLI process
        code = "\n".join([
            "import sys",
            "import motkit.cli",
            "from motkit import DiscreteMeasure, solve_lp",
            "mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])",
            "nu = DiscreteMeasure([-2.0, -1.0, 1.0, 2.0], [0.25] * 4)",
            "assert solve_lp(mu, nu, 1.0).status == 'optimal'",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path),
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("module", ["lp", "verify"])
    def test_checkers_import_no_solver_code(self, module):
        # the LP oracle and the verifier check the sweep, so they import only
        # the records and the errors, never mot1d or another solver module
        path = Path(__file__).resolve().parents[1] / "src" / "motkit" / f"{module}.py"
        package = {"." + (node.module or alias.name)
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ImportFrom) and node.level
                   for alias in node.names}
        assert package == {".errors", ".measures"}

    def test_every_import_is_used(self):
        # an import left behind when a definition moves out of a module;
        # names on a `# noqa: F401` line are kept for the tracer to rebind
        package = Path(__file__).resolve().parents[1] / "src" / "motkit"
        unused = {}
        for path in sorted(package.glob("*.py")):
            if path.name == "__init__.py":
                continue
            text = path.read_text()
            lines = text.splitlines()
            tree = ast.parse(text)
            imported = {(alias.asname or alias.name).split(".")[0]
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"
                        and "# noqa: F401" not in lines[node.end_lineno - 1]
                        for alias in node.names}
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            if imported - used:
                unused[path.name] = sorted(imported - used)
        assert unused == {}

    def test_every_public_name_resolves(self):
        import motkit
        for name in motkit.__all__:
            assert getattr(motkit, name) is not None
