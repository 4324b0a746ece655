import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from motkit.cli import main


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


class TestSolveRadial:
    def test_costs_agree(self, radial_file, tmp_path, capsys):
        out = tmp_path / "lift.json"
        assert main(["solve-radial", radial_file, "--n", "200",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["dim"] == 2
        assert abs(doc["cost"] - doc["cost_ddim"]) <= 1e-9

    def test_origin_atom_exit_two(self, tmp_path):
        doc = {"dim": 2,
               "mu": {"type": "radial-atoms", "atoms": [[0.0, 1.0]]},
               "nu": {"type": "radial-atoms", "atoms": [[2.0, 1.0]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve-radial", str(path)]) == 2

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

    def test_nan_in_maps_exit_two(self, pair_file, tmp_path):
        out = tmp_path / "pi.json"
        assert main(["solve", pair_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["maps"][-1][1] = float("nan")
        out.write_text(json.dumps(doc))
        assert main(["verify", "--coupling", str(out),
                     "--marginals", pair_file]) == 2


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
