"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All assertions are exact (integer or reduced-rational equality); the only
tolerances are the stated wall-clock budgets.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import comb

from eulerian_kit import (
    SimplicialComplex,
    check_main_formula,
    ds_residuals,
    euler_characteristic,
    f_poly_eval,
    f_vector,
    h_poly_eval,
    is_eulerian,
    proof_trace,
)
from eulerian_kit import cli
from eulerian_kit import generators as gen
from eulerian_kit.cli import main

import oracles


def _criterion(num, desc, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    elapsed = time.monotonic() - start
    print(f"[PASS] criterion {num}: {desc} ({elapsed:.2f}s)")


def _run_check_json(capsys, *argv):
    rc = main(["check", *argv, "--json"])
    doc = json.loads(capsys.readouterr().out)
    return rc, doc


def canonical_eulerian_corpus():
    """Named Eulerian generator outputs plus their barycentric subdivisions.

    Suspensions stop at the 5-simplex boundary to keep the largest
    subdivision near 8*10^4 faces (desk scale).
    """
    base = [(f"simplex_boundary:{n}", gen.simplex_boundary(n)) for n in range(2, 7)]
    base += [
        (f"cross_polytope_boundary:{n}", gen.cross_polytope_boundary(n))
        for n in range(2, 6)
    ]
    base.append(("torus7", gen.torus7()))
    base.append(("projective_plane6", gen.projective_plane6()))
    base.append(
        (
            "join(simplex_boundary:2, simplex_boundary:2)",
            gen.join(gen.simplex_boundary(2), gen.simplex_boundary(2)),
        )
    )
    base += [
        (f"suspension(simplex_boundary:{n})", gen.suspension(gen.simplex_boundary(n)))
        for n in range(2, 6)
    ]
    subdivided = [
        (f"barycentric_subdivision({name})", gen.barycentric_subdivision(K))
        for name, K in base
    ]
    return base + subdivided


def test_criterion_1_sphere_family_formula(capsys):
    def body():
        start = time.monotonic()
        for m in range(1, 6):
            n = 2 * m + 1
            rc, doc = _run_check_json(capsys, "--gen", f"simplex_boundary:{n}", "formula")
            assert rc == 0
            sec = doc["main_formula"]
            assert sec["holds"] and not sec["parity_warning"]
            assert sec["scaled_lhs"] == str(2 ** (2 * m) * 2)
            expected = sum(
                (-1) ** i * 2 ** (2 * m - i) * comb(2 * m + 2, i + 1)
                for i in range(2 * m + 1)
            )
            assert sec["scaled_rhs"] == str(expected)
            assert expected == 2 ** (2 * m) * 2
        assert time.monotonic() - start < 5.0

    _criterion(1, "even-dim sphere family satisfies the half-power identity", body)


def test_criterion_2_non_sphere_cases(capsys):
    def body():
        start = time.monotonic()
        cases = {
            "projective_plane6": ("1", "1/1"),
            "torus7": ("0", "0/1"),
            "disjoint_union(simplex_boundary:3, simplex_boundary:3)": ("4", "4/1"),
        }
        for expr, (lhs, rhs) in cases.items():
            rc, doc = _run_check_json(capsys, "--gen", expr, "formula")
            assert rc == 0
            assert doc["main_formula"]["lhs"] == lhs
            assert doc["main_formula"]["rhs"] == rhs
        assert time.monotonic() - start < 1.0

    _criterion(2, "projective plane, torus, and a disjoint pair of 2-spheres", body)


def test_criterion_3_ds_residuals_across_corpus():
    def body():
        start = time.monotonic()
        for name, K in canonical_eulerian_corpus():
            rows, report = ds_residuals(K)
            assert report.holds, f"{name}: row {report.witness} fails"
        rows, _ = ds_residuals(gen.projective_plane6())
        assert (rows[0].lhs, rows[0].rhs) == (-1, -1)
        assert (rows[1].lhs, rows[1].rhs) == (3, 3)
        rows, _ = ds_residuals(gen.torus7())
        assert (rows[0].lhs, rows[0].rhs) == (-2, -2)
        assert (rows[1].lhs, rows[1].rhs) == (6, 6)
        assert time.monotonic() - start < 30.0

    _criterion(3, "Dehn-Sommerville rows hold on every canonical generator", body)


def test_criterion_4_proof_identities():
    def body():
        rng = random.Random(20260809)
        produced = 0
        while produced < 100:
            K = SimplicialComplex.from_facets(oracles.random_facets(rng))
            if K.is_empty():
                continue
            assert h_poly_eval(K, -1) == f_poly_eval(K, -2)
            produced += 1
        even_dim = [
            (name, K)
            for name, K in canonical_eulerian_corpus()
            if K.dim % 2 == 0
        ]
        assert even_dim
        for name, K in even_dim:
            rep = proof_trace(K)
            assert rep.holds, name
            m = K.dim // 2
            expected = 2 ** (2 * m) * (euler_characteristic(K) - 2)
            assert rep.values["A"] == rep.values["B"] == expected, name

    _criterion(4, "substitution identity on 100 random complexes; A=B on even-dim corpus", body)


def test_criterion_5_negative_controls(capsys):
    def body():
        rc, doc = _run_check_json(capsys, "--gen", "polygon:6", "formula")
        assert rc == 1
        sec = doc["main_formula"]
        assert sec["lhs"] == "0" and sec["rhs"] == "3/1"
        assert sec["parity_warning"] and not sec["holds"]

        rc, doc = _run_check_json(capsys, "--gen", "suspension(torus7)", "eulerian")
        assert rc == 1
        witness = doc["is_eulerian"]["witness"]
        assert witness in (["apex0"], ["apex1"])
        S = gen.suspension(gen.torus7())
        face = S.face_from_labels(witness)
        assert euler_characteristic(S.link(face)) == 0

    _criterion(5, "hexagon formula fails with parity warning; torus suspension fails at an apex", body)


def test_criterion_6_structural_properties():
    def body():
        rng = random.Random(1789)
        for _ in range(50):
            A = SimplicialComplex.from_facets(oracles.random_facets(rng, max_vertices=8))
            B = SimplicialComplex.from_facets(oracles.random_facets(rng, max_vertices=8))
            J = gen.join(A, B)
            for t in (-2, -1, 0, 1, 2):
                assert f_poly_eval(J, t) == f_poly_eval(A, t) * f_poly_eval(B, t)

        one_per_generator = [
            gen.simplex_boundary(4),
            gen.cross_polytope_boundary(3),
            gen.polygon(7),
            gen.torus7(),
            gen.projective_plane6(),
            gen.cone(gen.torus7()),
            gen.suspension(gen.polygon(5)),
            gen.join(gen.simplex_boundary(2), gen.polygon(4)),
            gen.disjoint_union(gen.simplex_boundary(3), gen.polygon(4)),
            gen.barycentric_subdivision(gen.simplex_boundary(3)),
        ]
        for K in one_per_generator:
            assert euler_characteristic(
                gen.barycentric_subdivision(K)
            ) == euler_characteristic(K)

        closure_corpus = [
            K for _, K in canonical_eulerian_corpus() if K.num_faces() <= 10**4
        ]
        assert closure_corpus
        for K in closure_corpus:
            for face in K.faces():
                for k in range(1, len(face)):
                    for sub in itertools.combinations(face, k):
                        assert sub in K

    _criterion(6, "join multiplicativity, subdivision chi-invariance, exhaustive closure", body)


def test_criterion_7_flag_detection():
    def body():
        rep = gen.simplex_boundary(3).is_flag()
        assert not rep.holds
        assert rep.witness == (0, 1, 2, 3)
        for n in range(1, 5):
            assert gen.cross_polytope_boundary(n).is_flag().holds

    _criterion(7, "flag detection: 2-sphere as K4 witness, cross-polytopes flag", body)


def test_criterion_8_performance_on_double_subdivision(capsys):
    def body():
        start = time.monotonic()
        rc, doc = _run_check_json(
            capsys,
            "--gen",
            "barycentric_subdivision(barycentric_subdivision(simplex_boundary:3))",
            "--all",
        )
        elapsed = time.monotonic() - start
        assert rc == 0
        assert doc["checks_passed"] is True
        assert doc["f_vector"] == ["74", "216", "144"]
        assert elapsed < 5.0

    _criterion(8, "full check of the twice-subdivided 2-sphere under 5s", body)


def test_criterion_9_exhaustive_audit_on_twice_subdivided_complexes(capsys):
    def body():
        start = time.monotonic()
        rc, doc = _run_check_json(
            capsys,
            "--gen",
            "barycentric_subdivision(barycentric_subdivision(simplex_boundary:4))",
            "--all",
            "--exhaustive",
        )
        elapsed = time.monotonic() - start
        assert rc == 0
        assert doc["checks_passed"] is True
        assert doc["is_eulerian"] == {"holds": True, "witness": None}
        # f_{j-1}(sd K) = sum_i f_{i-1}(K) j! S(i, j): (5, 10, 10, 5) -> (30, 150, 240, 120)
        assert doc["f_vector"] == ["540", "3420", "5760", "2880"]
        assert elapsed < 5.0

        start = time.monotonic()
        rc, doc = _run_check_json(
            capsys,
            "--gen",
            "join(barycentric_subdivision(barycentric_subdivision(torus7)), polygon:4)",
            "--all",
            "--exhaustive",
        )
        elapsed = time.monotonic() - start
        assert rc == 1
        failures = doc["is_eulerian"]["failures"]
        assert [(f["face"], f["chi_link"], f["expected"]) for f in failures] == (
            [([v], "2", "0") for v in "0123"]
            + [(list(e), "0", "2") for e in ("01", "03", "12", "23")]
        )
        assert elapsed < 5.0

    _criterion(9, "exhaustive audits of two twice-subdivided complexes under 5s each", body)


def test_criterion_10_huge_leaf_on_the_counts_path(capsys):
    def body():
        start = time.monotonic()
        rc, doc = _run_check_json(capsys, "--gen", "simplex_boundary:1500", "ds")
        elapsed = time.monotonic() - start
        assert rc == 0
        assert doc["h_vector"] == ["1"] * 1501
        assert all(row["holds"] for row in doc["ds_rows"])
        assert elapsed < 10.0

    _criterion(10, "Dehn-Sommerville rows of the 1499-sphere simplex boundary under 10s", body)


def test_criterion_11_flag_from_the_count_rules(capsys, monkeypatch):
    def unbuilt(spec):
        raise AssertionError(f"built {spec.to_expr()}")

    def body():
        monkeypatch.setattr(cli, "build", unbuilt)
        nested = "torus7"
        for _ in range(6):
            nested = f"barycentric_subdivision({nested})"
        start = time.monotonic()
        rc = main(["info", "--gen", nested])
        out = capsys.readouterr().out
        assert time.monotonic() - start < 1.0
        assert rc == 0
        assert "f-vector: (326592, 979776, 653184)" in out
        assert out.splitlines()[-1] == "flag: yes"

        start = time.monotonic()
        rc = main(["info", "--gen", "join(simplex_boundary:40, simplex_boundary:40)", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert time.monotonic() - start < 1.0
        assert rc == 0
        assert doc["is_flag"] == {"holds": False, "witness": [str(i) for i in range(41)]}

        start = time.monotonic()
        rc = main(["check", "--gen", "simplex_boundary:41", "flag"])
        out = capsys.readouterr().out
        assert time.monotonic() - start < 1.0
        assert rc == 1
        assert "flag: no   non-face clique: {" + ",".join(map(str, range(42))) + "}" in out

    _criterion(11, "flag verdict and witness of unbuildable expressions in under 1s each", body)
