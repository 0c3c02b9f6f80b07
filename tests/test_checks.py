"""Eulerian condition, Dehn-Sommerville residuals, and the formula audits."""

import json
import random
from math import prod

import pytest
from hypothesis import assume, example, given, note, settings
from hypothesis import strategies as st

from eulerian_kit import (
    CheckReport,
    InputError,
    SimplicialComplex,
    check_main_formula,
    ds_residuals,
    euler_characteristic,
    h_poly_eval,
    h_vector,
    is_eulerian,
    proof_trace,
    sphere_chi,
)
from eulerian_kit import checks
from eulerian_kit import generators as gen
from eulerian_kit.checks import link_chis
from eulerian_kit.cli import main, parse_generator_expr
from eulerian_kit.facetio import facet_rows

import oracles


def test_sphere_chi_values():
    assert sphere_chi(-1) == 0
    assert sphere_chi(0) == 2
    assert sphere_chi(1) == 0
    assert sphere_chi(2) == 2
    assert sphere_chi(3) == 0
    with pytest.raises(InputError):
        sphere_chi(-2)


# -- is_eulerian -----------------------------------------------------------------


def test_simplex_boundary_4_is_eulerian():
    rep = is_eulerian(gen.simplex_boundary(4))
    assert rep.holds


def test_torus7_is_eulerian():
    assert is_eulerian(gen.torus7()).holds


def test_suspension_of_torus_fails_at_first_apex():
    S = gen.suspension(gen.torus7())
    rep = is_eulerian(S)
    assert not rep.holds
    assert S.labels_of(rep.witness) == ("apex0",)
    assert rep.values["chi_link"] == 0
    assert rep.values["expected"] == 2
    # the witness's link really is the torus
    assert euler_characteristic(S.link(rep.witness)) == 0


def test_exhaustive_mode_collects_both_apexes():
    S = gen.suspension(gen.torus7())
    rep = is_eulerian(S, exhaustive=True)
    assert not rep.holds
    assert len(rep.failures) == 2
    assert {S.labels_of(r["face"]) for r in rep.failures} == {("apex0",), ("apex1",)}


def test_impure_complex_fails_with_purity_witness():
    K = SimplicialComplex.from_facets([["a", "b", "c"], ["x", "y"]])
    rep = is_eulerian(K)
    assert not rep.holds
    assert rep.values["reason"] == "not_pure"
    assert K.labels_of(rep.witness) == ("x", "y")


@pytest.mark.parametrize(
    "K",
    [
        SimplicialComplex.from_facets([["a", "b", "c"], ["x", "y"], ["c", "d"]]),
        gen.suspension(gen.torus7()),
    ],
    ids=["not_pure", "bad_link"],
)
def test_first_failure_is_the_same_with_and_without_exhaustive(K):
    first, every = is_eulerian(K), is_eulerian(K, exhaustive=True)
    assert (first.witness, first.values) == (every.witness, every.values)
    assert first.failures == []
    assert len(every.failures) >= 2
    assert every.failures[0]["face"] == every.witness


def test_empty_complex_is_not_eulerian():
    rep = is_eulerian(SimplicialComplex.from_facets([]))
    assert not rep.holds
    assert rep.witness == "empty complex"


def test_polygons_are_eulerian():
    for n in range(3, 9):
        assert is_eulerian(gen.polygon(n)).holds


def test_disconnected_eulerian_manifold_accepted():
    K = gen.disjoint_union(gen.simplex_boundary(3), gen.simplex_boundary(3))
    assert is_eulerian(K).holds
    rep = check_main_formula(K)
    assert rep.holds
    assert rep.values["rhs"] == 8 - 12 / 2 + 8 / 4 == 4


def test_mixed_dimension_union_is_not_eulerian():
    K = gen.disjoint_union(gen.simplex_boundary(3), gen.polygon(3))
    assert not K.is_pure()
    assert not is_eulerian(K).holds


def test_single_point_is_eulerian():
    # one vertex, whose link is empty: chi matches S^{-1}
    assert is_eulerian(SimplicialComplex.from_facets([["pt"]])).holds


# -- the link sweep against one link subcomplex per face ---------------------------


def per_face_link_audit(K):
    """The exhaustive Eulerian audit that builds the link of every face, in
    (dimension, lexicographic) order: the reference for the sweep."""
    if K.is_empty():
        return CheckReport(
            holds=False,
            witness="empty complex",
            values={"reason": "empty complex"},
        )
    d = K.dim
    failures = [
        {"face": facet, "kind": "not_pure", "facet_dim": len(facet) - 1, "complex_dim": d}
        for facet in K.facets
        if len(facet) - 1 != d
    ]
    for sigma in K.faces():
        got = euler_characteristic(K.link(sigma))
        want = sphere_chi(d - len(sigma))
        if got != want:
            failures.append({"face": sigma, "kind": "bad_link", "chi_link": got, "expected": want})
    if not failures:
        return CheckReport(holds=True, values={"faces_checked": K.num_faces()})
    first = failures[0]
    values = {k: v for k, v in first.items() if k not in ("face", "kind")}
    return CheckReport(
        holds=False,
        witness=first["face"],
        values={"reason": first["kind"], **values},
        failures=failures,
    )


FACET_ROWS = st.one_of(
    st.just([]),
    st.builds(lambda seed: oracles.random_facets(random.Random(seed)), st.integers(0, 2**32 - 1)),
)
SWEEP_EXAMPLES = [
    [],
    [["pt"]],
    [["a", "b", "c"], ["x", "y"], ["c", "d"]],
    facet_rows(gen.torus7()),
    facet_rows(gen.suspension(gen.torus7())),
    facet_rows(gen.join(gen.torus7(), gen.polygon(4))),
]


def _with_examples(test):
    for rows in SWEEP_EXAMPLES:
        test = example(rows=rows)(test)
    return test


@settings(max_examples=150)
@given(rows=FACET_ROWS)
@_with_examples
def test_link_chis_match_every_link(rows):
    K = SimplicialComplex.from_facets(rows)
    faces = oracles.closure_of(rows)
    for k in range(1, K.dim + 2):
        chis = link_chis(K, k)
        assert set(chis) == K.faces_of_dim(k - 1)
        for s, got in chis.items():
            assert got == euler_characteristic(K.link(s))
            assert got == oracles.chi_of(oracles.link_of(faces, K.labels_of(s)))
    assert link_chis(K, K.dim + 2) == {}


@settings(max_examples=150)
@given(rows=FACET_ROWS)
@_with_examples
def test_eulerian_audit_matches_the_per_face_link_audit(rows):
    K = SimplicialComplex.from_facets(rows)
    want = per_face_link_audit(K)
    assert is_eulerian(K, exhaustive=True) == want
    first = is_eulerian(K)
    assert (first.holds, first.witness, first.values) == (want.holds, want.witness, want.values)
    assert first.failures == []


def test_check_all_exhaustive_builds_no_link(tmp_path, monkeypatch, capsys):
    # the surface generators check their vertex links, so the files are
    # written before link is disabled
    exprs = {"fail": "suspension(torus7)", "pass": "barycentric_subdivision(torus7)"}
    for name, expr in exprs.items():
        assert main(["gen", expr, "-o", str(tmp_path / f"{name}.facets")]) == 0

    def no_links(self, face):
        raise AssertionError("the Eulerian audit built a link")

    monkeypatch.setattr(SimplicialComplex, "link", no_links)
    argv = ["check", "--all", "--exhaustive", "--json"]
    assert main([*argv, str(tmp_path / "fail.facets")]) == 1
    failures = json.loads(capsys.readouterr().out)["is_eulerian"]["failures"]
    assert [(f["face"], f["chi_link"]) for f in failures] == [(["apex0"], "0"), (["apex1"], "0")]
    assert main([*argv, str(tmp_path / "pass.facets")]) == 0


# -- Dehn-Sommerville residuals ----------------------------------------------------


def test_ds_rows_for_tetra_boundary_all_vanish():
    rows, rep = ds_residuals(gen.simplex_boundary(3))
    assert rep.holds
    assert [(r.lhs, r.rhs) for r in rows] == [(0, 0)] * 4


def test_ds_rows_for_projective_plane():
    rows, rep = ds_residuals(gen.projective_plane6())
    assert rep.holds
    assert [(r.i, r.lhs, r.rhs) for r in rows] == [
        (0, -1, -1),
        (1, 3, 3),
        (2, -3, -3),
        (3, 1, 1),
    ]


def test_ds_rows_for_torus7():
    rows, rep = ds_residuals(gen.torus7())
    assert rep.holds
    assert [(r.i, r.lhs, r.rhs) for r in rows] == [
        (0, -2, -2),
        (1, 6, 6),
        (2, -6, -6),
        (3, 2, 2),
    ]


def test_ds_rejects_empty_complex():
    with pytest.raises(InputError):
        ds_residuals(SimplicialComplex.from_facets([]))


def test_ds_row_symmetry_holds_even_off_the_eulerian_class():
    rng = random.Random(3)
    complexes = [
        gen.torus7(),
        gen.polygon(5),
        SimplicialComplex.from_facets([["a", "b", "c"], ["c", "d"]]),
    ]
    complexes += [
        SimplicialComplex.from_facets(oracles.random_facets(rng)) for _ in range(20)
    ]
    for K in complexes:
        rows, _ = ds_residuals(K)
        d = K.dim + 1
        for r in rows:
            assert rows[d - r.i].lhs == -r.lhs
            assert rows[d - r.i].rhs == (-1) ** d * r.rhs


def test_h_vector_palindromic_when_chi_matches_sphere():
    for K in (gen.simplex_boundary(4), gen.cross_polytope_boundary(3), gen.polygon(6)):
        assert is_eulerian(K).holds
        assert euler_characteristic(K) == sphere_chi(K.dim)
        h = h_vector(K)
        assert h == h[::-1]


def test_ds_rows_failing_on_non_eulerian_complex_report_witness():
    # two triangles glued along an edge: pure but the shared edge's link is 2 points
    # while boundary edges see 1 point, so it is not Eulerian
    K = SimplicialComplex.from_facets([["a", "b", "c"], ["a", "b", "d"]])
    rows, rep = ds_residuals(K)
    assert not rep.holds
    assert rep.witness == next(r.i for r in rows if not r.holds)


# -- main formula -------------------------------------------------------------------


def test_main_formula_tetra_boundary():
    rep = check_main_formula(gen.simplex_boundary(3))
    assert rep.holds
    assert rep.values["rhs"] == 2
    assert rep.values["scaled_lhs"] == 4 * 2 == 8
    assert rep.values["scaled_rhs"] == 4 * 4 - 2 * 6 + 4 == 8
    assert not rep.values["parity_warning"]


def test_main_formula_projective_plane():
    rep = check_main_formula(gen.projective_plane6())
    assert rep.holds
    assert rep.values["lhs"] == 1
    assert rep.values["rhs"] == 1
    assert rep.values["scaled_lhs"] == rep.values["scaled_rhs"] == 4


def test_main_formula_hexagon_fails_with_parity_warning():
    rep = check_main_formula(gen.polygon(6))
    assert not rep.holds
    assert rep.values["rhs"] == 3
    assert rep.values["lhs"] == 0
    assert rep.values["parity_warning"]
    assert rep.witness is not None


def test_main_formula_rejects_empty_complex():
    with pytest.raises(InputError):
        check_main_formula(SimplicialComplex.from_facets([]))


def test_eulerian_verdict_across_guaranteed_generator_outputs():
    # every generator output carrying an Eulerian guarantee
    corpus = [
        gen.simplex_boundary(n) for n in range(2, 7)
    ] + [
        gen.cross_polytope_boundary(n) for n in range(2, 6)
    ] + [
        gen.torus7(),
        gen.projective_plane6(),
        gen.join(gen.simplex_boundary(2), gen.simplex_boundary(2)),
        gen.suspension(gen.simplex_boundary(2)),
        gen.suspension(gen.simplex_boundary(3)),
        gen.suspension(gen.simplex_boundary(4)),
    ]
    corpus += [gen.barycentric_subdivision(K) for K in list(corpus)]
    for K in corpus:
        assert is_eulerian(K).holds
        _, rep = ds_residuals(K)
        assert rep.holds


def test_both_sphere_families_eulerian_with_palindromic_h():
    for n in range(2, 6):
        for K in (gen.simplex_boundary(n), gen.cross_polytope_boundary(n)):
            assert is_eulerian(K).holds
            h = h_vector(K)
            assert h == h[::-1]


def test_main_formula_holds_for_every_even_dimensional_eulerian_example():
    examples = [
        gen.simplex_boundary(3),
        gen.simplex_boundary(5),
        gen.cross_polytope_boundary(3),
        gen.torus7(),
        gen.projective_plane6(),
        gen.suspension(gen.polygon(5)),
        gen.barycentric_subdivision(gen.torus7()),
    ]
    for K in examples:
        assert K.dim % 2 == 0
        assert is_eulerian(K).holds
        assert check_main_formula(K).holds


# -- proof trace --------------------------------------------------------------------


def test_proof_trace_tetra_boundary():
    rep = proof_trace(gen.simplex_boundary(3))
    assert rep.holds
    assert rep.values["A"] == rep.values["B"] == rep.values["C"] == rep.values["P"] == 0


def test_proof_trace_projective_plane():
    rep = proof_trace(gen.projective_plane6())
    assert rep.holds
    assert rep.values["A"] == rep.values["B"] == rep.values["C"] == -4


def test_proof_trace_torus():
    rep = proof_trace(gen.torus7())
    assert rep.holds
    assert rep.values["A"] == rep.values["C"] == -8
    assert rep.values["B"] == 4 * (0 - 2) == -8


def test_proof_trace_rejects_odd_dimension_and_empty():
    with pytest.raises(InputError):
        proof_trace(gen.polygon(4))
    with pytest.raises(InputError):
        proof_trace(SimplicialComplex.from_facets([]))


def test_proof_trace_isolates_the_broken_step_on_non_eulerian_input():
    # pure, even-dimensional, but not Eulerian: substitution identities still
    # hold while the residual-driven equality breaks
    K = SimplicialComplex.from_facets([["a", "b", "c"], ["a", "b", "d"]])
    rep = proof_trace(K)
    assert not rep.holds
    assert rep.values["a_equals_c"]
    assert rep.values["a_equals_p"]
    assert not rep.values["a_equals_b"]
    assert rep.witness == "a_equals_b"


def test_substitution_identities_hold_for_random_even_dimensional_complexes():
    rng = random.Random(5)
    count = 0
    while count < 25:
        K = SimplicialComplex.from_facets(oracles.random_facets(rng))
        if K.is_empty() or K.dim % 2 != 0:
            continue
        rep = proof_trace(K)
        assert rep.values["a_equals_c"]
        assert rep.values["a_equals_p"]
        count += 1


def test_proof_trace_holds_where_the_formula_does_though_dehn_sommerville_fails():
    """Every Dehn-Sommerville row holding gives A = B, but A = B does not give
    them: this pure 4-complex fails rows 1-4 while the formula and the proof
    trace hold."""
    K = SimplicialComplex.from_facets(
        [["1", "2", "3", "5", "7"], ["1", "2", "3", "4", "6"],
         ["0", "1", "3", "6", "7"], ["0", "2", "4", "6", "7"]]
    )
    assert K.by_size == (1, 8, 25, 35, 20, 4) and euler_characteristic(K) == 2
    rows, ds = ds_residuals(K)
    assert [(row.lhs, row.rhs) for row in rows] == [(0, 0), (-5, 0), (-5, 0), (5, 0), (5, 0), (0, 0)]
    assert ds.failures == [1, 2, 3, 4]
    formula = check_main_formula(K)
    assert formula.holds and formula.values["scaled_lhs"] == formula.values["scaled_rhs"] == 32
    rep = proof_trace(K)
    assert rep.holds
    assert rep.values["A"] == rep.values["B"] == rep.values["C"] == rep.values["P"] == 0


@given(
    f=st.integers(0, 3).flatmap(
        lambda m: st.lists(st.integers(0, 12), min_size=2 * m + 1, max_size=2 * m + 1)
    )
)
@example(f=[8, 25, 35, 20, 4])
@example(f=[6, 12, 8])
@example(f=[4, 6, 4])
@example(f=[7, 21, 14])
def test_proof_trace_holds_exactly_when_the_formula_does(f):
    """Given A = C, which holds for any f-vector, C = scaled_rhs - 2^(2m+1)
    and B = scaled_lhs - 2^(2m+1), so A = B is the formula's equality."""
    K = gen.FaceCounts((1, *f))
    rep = proof_trace(K)
    assert rep.values["a_equals_c"] and rep.values["a_equals_p"]
    assert rep.holds == check_main_formula(K).holds


@given(
    f=st.integers(0, 6).flatmap(
        lambda m: st.lists(st.integers(0, 10**30), min_size=2 * m + 1, max_size=2 * m + 1)
    )
)
@example(f=[3, 3, 1])
@example(f=[7, 21, 14])
def test_proof_trace_a_is_the_h_polynomial_at_minus_one(f):
    """proof_trace reads A = h(-1) off the h-vector it already has; it is
    the value of the h-polynomial at -1, sign and all, for any even-dimensional
    f-vector."""
    K = gen.FaceCounts((1, *f))
    assert proof_trace(K).values["A"] == h_poly_eval(K, -1)


# -- random operator trees over Eulerian leaves -------------------------------------

MAX_FACES = 3000
# FUBINI[k]: chains of faces ending at a k-face, i.e. the faces a k-face
# contributes to the barycentric subdivision
FUBINI = (1, 1, 3, 13, 75, 541, 4683, 47293)

SPHERE_LEAVES = st.one_of(
    st.integers(1, 4).map("simplex_boundary:{}".format),
    st.integers(1, 3).map("cross_polytope_boundary:{}".format),
    st.integers(3, 6).map("polygon:{}".format),
)


def _leaf(expr):
    return expr, gen.build(parse_generator_expr(expr))


def _apply(op, *operands, max_faces=MAX_FACES):
    """op applied to (expr, complex) operands.  Rejects the example before
    building when it would hold a second subdivision or more than max_faces
    faces."""
    expr = f"{op}({', '.join(e for e, _ in operands)})"
    sizes = [K.num_faces() for _, K in operands]
    if op == "disjoint_union":
        faces = sum(sizes)
    elif op == "barycentric_subdivision":
        (_, K), = operands
        assume(K.dim + 1 < len(FUBINI))
        faces = sum(K.by_size[k] * FUBINI[k] for k in range(1, K.dim + 2))
    else:  # a face of a join pairs a face or the empty face of each side, not both empty;
        # the cone and the suspension join one and two points
        sides = sizes + {"cone": [1], "suspension": [2]}.get(op, [])
        faces = prod(n + 1 for n in sides) - 1
    assume(expr.count("barycentric_subdivision") <= 1 and faces <= max_faces)
    return expr, gen.build(parse_generator_expr(expr))


@st.composite
def sphere_trees(draw, depth=3):
    """(expr, complex): sphere leaves under join, suspension and subdivision."""
    ops = ("leaf",) + (("join", "suspension", "barycentric_subdivision") if depth else ())
    op = draw(st.sampled_from(ops))
    if op == "leaf":
        return _leaf(draw(SPHERE_LEAVES))
    arity = 2 if op == "join" else 1
    return _apply(op, *(draw(sphere_trees(depth - 1)) for _ in range(arity)))


@st.composite
def manifold_trees(draw, depth=2):
    """(expr, complex): spheres, torus7 and projective_plane6 under subdivision
    and disjoint unions of equal dimension.  Nothing here is joined or
    suspended: suspension(torus7) is not Eulerian."""
    ops = ("sphere", "torus7", "projective_plane6")
    ops += ("barycentric_subdivision", "disjoint_union") if depth else ()
    op = draw(st.sampled_from(ops))
    if op == "sphere":
        return draw(sphere_trees())
    if op == "barycentric_subdivision":
        return _apply(op, draw(manifold_trees(depth - 1)))
    if op == "disjoint_union":
        left, right = draw(manifold_trees(depth - 1)), draw(manifold_trees(depth - 1))
        assume(left[1].dim == right[1].dim)
        return _apply(op, left, right)
    return _leaf(op)


@settings(max_examples=50)
@given(tree=manifold_trees())
@example(tree=_leaf("disjoint_union(torus7, projective_plane6)"))
@example(tree=_leaf("barycentric_subdivision(disjoint_union(torus7, simplex_boundary:3))"))
@example(tree=_leaf("join(cross_polytope_boundary:2, polygon:3)"))
def test_eulerian_operator_trees_pass_every_check(tree):
    expr, K = tree
    note(f"{expr}: {K.num_faces()} faces")
    assert is_eulerian(K).holds
    rows, _ = ds_residuals(K)
    assert all(row.holds for row in rows)
    if K.dim % 2 == 0:
        assert check_main_formula(K).holds
        assert proof_trace(K).holds


# -- the levels the audit counts ----------------------------------------------------

# A per-face link audit builds one link per face, so these trees stay small.
MIXED_MAX_FACES = 800


@st.composite
def mixed_trees(draw, depth=2):
    """(expr, complex): spheres, torus7 and projective_plane6 under cone, join,
    suspension and disjoint unions of any dimensions.  Cones, joins and
    suspensions of torus7 or projective_plane6, and unions of mixed
    dimension, are not Eulerian, so the first failing link falls on either
    kind of level."""
    ops = ("sphere", "torus7", "projective_plane6")
    ops += ("cone", "suspension", "join", "disjoint_union") if depth else ()
    op = draw(st.sampled_from(ops))
    if op == "sphere":
        return _leaf(draw(SPHERE_LEAVES))
    if op in ("torus7", "projective_plane6"):
        return _leaf(op)
    arity = 2 if op in ("join", "disjoint_union") else 1
    operands = (draw(mixed_trees(depth - 1)) for _ in range(arity))
    return _apply(op, *operands, max_faces=MIXED_MAX_FACES)


@settings(max_examples=60, deadline=None)
@given(tree=mixed_trees())
@example(tree=_leaf("cone(polygon:5)"))  # first failure: a vertex, d - k = 1
@example(tree=_leaf("join(torus7, polygon:5)"))  # first failure: a polygon vertex, d - k = 3
def test_audit_of_mixed_operator_trees_matches_the_per_face_link_audit(tree):
    expr, K = tree
    note(f"{expr}: {K.num_faces()} faces")
    want = per_face_link_audit(K)
    assert is_eulerian(K, exhaustive=True) == want
    first = is_eulerian(K)
    assert (first.holds, first.witness, first.values) == (want.holds, want.witness, want.values)


@settings(max_examples=100)
@given(rows=FACET_ROWS)
@_with_examples
def test_link_chi_is_the_sum_over_larger_faces(rows):
    # chi(lk s) = sum over faces t properly containing s of (1 - chi(lk t)),
    # in any complex, computed with the oracles alone
    faces = oracles.closure_of(rows)
    chis = {s: oracles.chi_of(oracles.link_of(faces, s)) for s in faces}
    for s in faces:
        assert chis[s] == sum(1 - chis[t] for t in faces if s < t)


@pytest.mark.parametrize(
    "expr, holds, first, every",
    [
        # d = 6: k = 2, 4, 6 of 1..7
        ("cross_polytope_boundary:7", True, [2, 4, 6], [2, 4, 6]),
        # d = 3: k = 1, 3 of 1..4
        ("barycentric_subdivision(barycentric_subdivision(simplex_boundary:4))", True, [1, 3],
         [1, 3]),
        # d = 4: the edges fail, so the vertices below them are counted too,
        # and only the exhaustive audit goes on to k = 4
        ("join(torus7, polygon:4)", False, [2, 1], [2, 4, 1]),
    ],
)
def test_audit_counts_only_the_levels_that_carry_information(monkeypatch, expr, holds, first,
                                                             every):
    K = gen.build(parse_generator_expr(expr))
    for exhaustive, want in ((False, first), (True, every)):
        counted = []

        def counting(K, k):
            counted.append(k)
            return link_chis(K, k)

        monkeypatch.setattr(checks, "link_chis", counting)
        assert is_eulerian(K, exhaustive=exhaustive).holds == holds
        assert counted == want
