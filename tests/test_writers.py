"""The writers of `motkit.mot1d` and the float kernel of `motkit.floattext`
against `repr` and the writers they replaced.

The oracles below are the coupling JSON, maps CSV and induced CSV writers as
they were before each distinct float was formatted once: a dict of Python
floats through json.dumps(sort_keys=True), and one repr per value and row.
Copied apart from the names, with the deleted `TransportMaps.as_rows`
written out as the rows of `columns()`. Every file the new writers produce
must equal the oracle's bytes, and every text of the kernel `repr`'s.
"""

import itertools
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motkit import Coupling, InputError, TransportMaps
from motkit.cli import main
import motkit.floattext
from motkit.floattext import BLOCK, text_rows
from motkit.mot1d import (write_coupling_json, write_induced_csv,
                          write_maps_csv)
from motkit.radial import load_radial_pair, solve_radial
from motkit.verify import deformation_curve, random_deformation_instance


def oracle_coupling_json(path, pi, cost_value=None, maps=None, extra=None):
    doc = {"entries": [[float(x), float(y), float(w)] for x, y, w in
                       zip(pi.xs, pi.ys, pi.masses)]}
    doc["cost"] = None if cost_value is None else float(cost_value)
    doc["maps"] = None if maps is None else [
        tuple(map(float, r)) for r in zip(*maps.columns())]
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def oracle_maps_csv(path, maps):
    with open(path, "w") as fh:
        fh.write("x,S,T,lambda_minus,lambda_plus\n")
        for row in zip(*maps.columns()):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def oracle_induced_csv(path, pi):
    with open(path, "w") as fh:
        fh.write("marginal,position,mass\n")
        src = pi.source_marginal()
        tgt = pi.target_marginal()
        for name, m in (("mu", src), ("nu", tgt)):
            for x, w in zip(m.positions, m.masses):
                fh.write(f"{name},{float(x)!r},{float(w)!r}\n")


def oracle_deform_csv(path, curve):
    with open(path, "w") as fh:
        fh.write("t,C\n")
        for t, c in curve:
            fh.write(f"{t!r},{c!r}\n")


# values next to repr's switches: 1e16 and 1e-4 change between positional
# and exponent notation, 5e-324 is the smallest subnormal, and -0.0 must keep
# its sign next to 0.0
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1.0000000000000002e16,
         1e-4, 9.999999999999999e-05, 0.00010000000000000002, -1e16, -1e-4,
         0.1, 1 / 3, 1e300, 1.7976931348623157e308, 2.5]
POSITIVE_EDGES = [v for v in EDGES if v > 0]
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def value_pools(draw, positive=False):
    """A short pool of values, edges and arbitrary floats; columns draw from
    it by index, so repeats across rows and columns are common."""
    edges = POSITIVE_EDGES if positive else EDGES
    floats = finite.filter(lambda v: v > 0) if positive else finite
    return draw(st.lists(st.one_of(st.sampled_from(edges), floats),
                         min_size=1, max_size=6))


def column(draw, pool, n):
    return np.array([pool[i] for i in draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=n, max_size=n))], dtype=float)


@st.composite
def documents(draw):
    pos, mass = draw(value_pools()), draw(value_pools(positive=True))
    n = draw(st.integers(0, 12))
    pi = Coupling(column(draw, pos, n), column(draw, pos, n), column(draw, mass, n))
    maps = None
    if draw(st.booleans()):
        k = draw(st.integers(0, 6))
        maps = TransportMaps(*(column(draw, pos, k) for _ in range(5)))
    cost_value = draw(st.one_of(st.none(), st.sampled_from(pos)))
    extra = None
    if draw(st.booleans()):
        extra = {"dim": draw(st.integers(1, 5)), "cost_ddim": draw(st.sampled_from(pos))}
    return pi, cost_value, maps, extra


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(documents())
    def test_bytes_equal(self, tmp_path_factory, doc):
        pi, cost_value, maps, extra = doc
        tmp = tmp_path_factory.mktemp("w")
        write_coupling_json(tmp / "new.json", pi, cost_value, maps, extra)
        oracle_coupling_json(tmp / "old.json", pi, cost_value, maps, extra)
        assert (tmp / "new.json").read_bytes() == (tmp / "old.json").read_bytes()
        if maps is not None:
            write_maps_csv(tmp / "new.csv", maps)
            oracle_maps_csv(tmp / "old.csv", maps)
            assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
        # the marginals merge atoms, and a merged mass beyond the float
        # range is refused by both
        try:
            oracle_induced_csv(tmp / "old_ind.csv", pi)
        except InputError:
            with pytest.raises(InputError):
                write_induced_csv(tmp / "new_ind.csv", pi)
        else:
            write_induced_csv(tmp / "new_ind.csv", pi)
            assert (tmp / "new_ind.csv").read_bytes() == (tmp / "old_ind.csv").read_bytes()

    def test_solve_radial_files(self, tmp_path):
        """The files of one solve-radial call, extra keys and induced CSV
        included, against the oracles on the same lifted coupling."""
        doc = {"dim": 3,
               "mu": {"type": "radial-grid", "r": list(np.linspace(0.0, 1.0, 21)),
                      "f": [0.75 / np.pi] * 20},
               "nu": {"type": "radial-atoms", "atoms": [[2.0, 1.0]]}}
        spec = tmp_path / "radial.json"
        spec.write_text(json.dumps(doc))
        assert main(["solve-radial", str(spec), "--n", "60", "--out",
                     str(tmp_path / "new.json"), "--induced-csv",
                     str(tmp_path / "new.csv")]) == 0
        dim, mu, nu = load_radial_pair(str(spec))
        lifted, c1 = solve_radial(mu, nu, 1.0, n=60)
        oracle_coupling_json(tmp_path / "old.json", lifted.base, c1, lifted.maps,
                             extra={"dim": dim, "cost_ddim": lifted.cost_ddim(1.0)})
        oracle_induced_csv(tmp_path / "old.csv", lifted.base)
        for name in ("json", "csv"):
            assert ((tmp_path / f"new.{name}").read_bytes()
                    == (tmp_path / f"old.{name}").read_bytes())


@pytest.mark.parametrize("q", ["0.5", "1.5", "2.0"])
def test_deform_check_csv(q, tmp_path):
    """deform-check --out writes the first instance's curve, as the oracle
    does from the same draw."""
    assert main(["deform-check", "--q", q, "--seed", "4", "--instances", "3",
                 "--out", str(tmp_path / "new.csv")]) == 0
    inst = random_deformation_instance(np.random.default_rng(4), float(q))
    oracle_deform_csv(tmp_path / "old.csv", deformation_curve(inst, 101))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_coupling_json_refuses_a_coupling_in_rd(tmp_path):
    # its positions are rows, which the [x, y, w] entries cannot hold
    pi = Coupling([[0.0, 0.0]], [[1.0, 0.0]], [1.0], dim=2)
    with pytest.raises(InputError):
        write_coupling_json(tmp_path / "c.json", pi)


def texts(values):
    """The kernel's texts of the values, one a line, decoded."""
    return b"".join(text_rows([values], b"", b"", b"\n")).decode().split("\n")[:-1]


def reprs(values):
    return [repr(v) for v in np.asarray(values, dtype=np.float64).tolist()]


def bit_patterns(draw_ints):
    return np.array(draw_ints, dtype=np.int64).view(np.float64)


# both sides of repr's switches to exponent notation at 1e-4 and 1e16, the
# extremes of the float range, and values whose shortest form has 1, 15, 16
# and 17 significant digits
FIXED = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e16,
         np.nextafter(1e16, 0), np.nextafter(1e16, np.inf), 9999999999999998.0,
         0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         3.0, 7e-300, 1e22, 0.5,
         0.123456789012345, 123456789012345.0, 9.99999999999999e-05,
         0.1234567890123456, 1 / 3, 1234567890123456.0,
         0.30000000000000004, 0.12345678901234568, 1.0000000000000002,
         float("inf"), -float("inf"), float("nan")]
POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))


class TestFloatTexts:
    def test_signed_zeros_keep_their_texts(self):
        assert texts([0.0, -0.0, 0.0, -0.0]) == ["0.0", "-0.0", "0.0", "-0.0"]

    def test_repeated_values_match_repr(self):
        values = [1.5, 2.5, 1.5, -0.0, 2.5, 1e16, 1.5, 0.0]
        assert texts(values) == ["1.5", "2.5", "1.5", "-0.0", "2.5", "1e+16", "1.5", "0.0"]

    def test_files_of_a_solve_match_the_oracles(self, tmp_path):
        # the JSON and the CSV of one solve: entries and maps share values
        pi = Coupling([-0.5, -0.5, 0.5, 0.5], [-2.0, 2.0, -2.0, 2.0],
                      [0.1875, 0.0625, 0.0625, 0.1875])
        maps = TransportMaps([-0.5, 0.5], [-2.0, -2.0], [2.0, 2.0],
                             [0.75, 1.0], [0.25, 1.0])
        write_coupling_json(tmp_path / "c.json", pi, 1.875, maps)
        write_maps_csv(tmp_path / "m.csv", maps)
        oracle_coupling_json(tmp_path / "c_old.json", pi, 1.875, maps)
        oracle_maps_csv(tmp_path / "m_old.csv", maps)
        for new, old in (("c.json", "c_old.json"), ("m.csv", "m_old.csv")):
            assert (tmp_path / new).read_bytes() == (tmp_path / old).read_bytes()

    def test_empty_columns(self):
        assert texts(np.zeros(0)) == []
        assert list(text_rows([np.zeros(0), []], b"[", b", ", b"]")) == []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    def test_floats_match_repr(self, values):
        assert texts(values) == reprs(values)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=50))
    def test_bit_patterns_match_repr(self, ints):
        values = bit_patterns(ints)
        assert texts(values) == reprs(values)

    def test_fixed_table(self):
        assert [len(repr(v).split("e")[0].replace("-", "").replace(".", "").strip("0"))
                for v in (3.0, 0.123456789012345, 1 / 3, 0.30000000000000004)] == [1, 15, 16, 17]
        values = np.concatenate([FIXED, np.negative(FIXED), POWERS_OF_TWO,
                                 -POWERS_OF_TWO])
        assert texts(values) == reprs(values)

    def test_longer_than_a_block(self, tmp_path):
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.integers(-2 ** 63, 2 ** 63 - 1, 3 * BLOCK + 5)
                                 .view(np.float64), rng.random(BLOCK), FIXED])
        assert texts(values) == reprs(values)
        # and a coupling file of several blocks of rows
        finite = values[np.isfinite(values)]
        n = len(finite) // 3
        pi = Coupling(finite[:n], finite[n:2 * n], np.abs(finite[2 * n:3 * n]) + 1.0)
        write_coupling_json(tmp_path / "new.json", pi, 1.0)
        oracle_coupling_json(tmp_path / "old.json", pi, 1.0)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    def test_threads_keep_their_own_buffers(self):
        # the kernel's scratch buffers are per thread; numpy releases the
        # interpreter lock inside its loops, so these threads overlap
        values = [np.random.default_rng(s).random(3 * BLOCK + 7) * 10.0 ** s
                  for s in range(6)]
        got = [None] * len(values)

        def work(k):
            for _ in range(3):
                got[k] = b"".join(text_rows([values[k]], b"", b"", b"\n")).decode()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(values))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old)
        assert got == ["".join(f"{t}\n" for t in reprs(v)) for v in values]

    def test_generators_read_in_turn(self):
        # generators of one thread share its scratch buffers: each must copy
        # its block out before it yields, whatever the other one writes
        rng = np.random.default_rng(17)
        values = [rng.random(10 ** 4), rng.random(10 ** 4) * 1e5, rng.random(2 * BLOCK)]
        gens = [text_rows([values[0]], b"", b"", b"\n"),
                text_rows([values[1]], b"", b"", b"\n"),
                text_rows([values[2][:BLOCK], values[2][BLOCK:]], b"[", b", ", b"]", b", ")]
        parts = [[] for _ in gens]
        for chunks in itertools.zip_longest(*gens):
            for part, chunk in zip(parts, chunks):
                if chunk is not None:
                    part.append(bytes(chunk))
        got = [b"".join(part).decode() for part in parts]
        assert got[0] == "".join(f"{t}\n" for t in reprs(values[0]))
        assert got[1] == "".join(f"{t}\n" for t in reprs(values[1]))
        pairs = zip(reprs(values[2][:BLOCK]), reprs(values[2][BLOCK:]))
        assert got[2] == ", ".join(f"[{x}, {y}]" for x, y in pairs)

    def test_every_value_through_the_fallback(self, monkeypatch, tmp_path):
        # with an infinite margin no decision is sure, so repr formats all
        calls = []
        monkeypatch.setattr(motkit.floattext, "EPS", np.inf)
        monkeypatch.setattr(motkit.floattext, "repr",
                            lambda v: calls.append(v) or repr(v), raising=False)
        values = np.concatenate([FIXED, np.random.default_rng(5).random(100)])
        assert texts(values) == reprs(values)
        assert len(calls) == len(values)
