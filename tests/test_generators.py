"""Canonical complexes and the complex-building operators."""

import contextlib
import io
import itertools
import random
import re
import sys
import time
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eulerian_kit import (
    InputError,
    SimplicialComplex,
    check_main_formula,
    euler_characteristic,
    f_poly_eval,
    f_vector,
    h_vector,
    is_eulerian,
)
from eulerian_kit import cli
from eulerian_kit import generators as gen

import oracles


def test_simplex_boundary_f_vectors():
    assert f_vector(gen.simplex_boundary(2)) == [3, 3]
    assert f_vector(gen.simplex_boundary(3)) == [4, 6, 4]
    assert f_vector(gen.simplex_boundary(5)) == [6, 15, 20, 15, 6]
    # alternating sum of (6,15,20,15,6); boundary of an odd simplex is an
    # even-dimensional sphere
    assert euler_characteristic(gen.simplex_boundary(5)) == 2
    assert euler_characteristic(gen.simplex_boundary(4)) == 0


@pytest.mark.parametrize("n", range(2, 7))
def test_simplex_boundary_counts_are_binomials(n):
    fv = f_vector(gen.simplex_boundary(n))
    assert fv == [comb(n + 1, i + 1) for i in range(n)]


def test_simplex_boundary_rejects_n_below_one():
    with pytest.raises(InputError):
        gen.simplex_boundary(0)


def test_cross_polytope_small_cases():
    assert f_vector(gen.cross_polytope_boundary(2)) == [4, 4]
    K = gen.cross_polytope_boundary(3)
    assert f_vector(K) == [6, 12, 8]
    assert euler_characteristic(K) == 2
    with pytest.raises(InputError):
        gen.cross_polytope_boundary(0)


@pytest.mark.parametrize("n", range(1, 6))
def test_cross_polytope_counts_match_formula(n):
    fv = f_vector(gen.cross_polytope_boundary(n))
    assert fv == [comb(n, i + 1) * 2 ** (i + 1) for i in range(n)]


def test_cross_polytope_has_no_antipodal_faces():
    K = gen.cross_polytope_boundary(3)
    for face in K.faces():
        labels = K.labels_of(face)
        axes = [lab[1:] for lab in labels]
        assert len(set(axes)) == len(axes)


@pytest.mark.parametrize("n", range(1, 7))
def test_cross_polytope_is_the_closure_of_its_sign_choices(n):
    """The joined axes give the complex whose facets pick one pole per axis,
    p_i as id 2i - 2 and m_i as id 2i - 1: the same labels, facets and levels."""
    labels = [pole + str(i) for i in range(1, n + 1) for pole in "pm"]
    signs = itertools.product(*((2 * i, 2 * i + 1) for i in range(n)))
    expected = SimplicialComplex.from_indexed_facets(list(signs), labels)
    K = gen.cross_polytope_boundary(n)
    assert K.labels == expected.labels == tuple(labels)
    assert K.facets == expected.facets
    assert [K.faces_of_dim(k) for k in range(n)] == [
        expected.faces_of_dim(k) for k in range(n)
    ]


def test_cross_polytope_is_flag():
    for n in range(1, 5):
        assert gen.cross_polytope_boundary(n).is_flag().holds


def test_polygon_triangle_equals_simplex_boundary_2():
    assert oracles.complex_faces(gen.polygon(3)) == oracles.complex_faces(
        gen.simplex_boundary(2)
    )
    with pytest.raises(InputError):
        gen.polygon(2)


def test_polygon_formula_check_fails_in_odd_dimension():
    rep = check_main_formula(gen.polygon(6))
    assert not rep.holds
    assert rep.values["rhs"] == 3


def test_torus7_construction():
    K = gen.torus7()
    assert f_vector(K) == [7, 21, 14]
    assert euler_characteristic(K) == 0
    assert is_eulerian(K).holds


def edge_facet_counts(K):
    """How many facets of K contain each edge."""
    counts = {}
    for facet in K.facets:
        for e in itertools.combinations(facet, 2):
            counts[e] = counts.get(e, 0) + 1
    return counts


def test_torus7_every_edge_in_exactly_two_facets():
    counts = edge_facet_counts(gen.torus7())
    assert set(counts.values()) == {2}
    assert len(counts) == 21


def test_projective_plane6_construction():
    K = gen.projective_plane6()
    assert f_vector(K) == [6, 15, 10]
    assert euler_characteristic(K) == 1
    assert is_eulerian(K).holds
    # 2-neighborly: every vertex pair is an edge, and each lies in two facets
    assert len(K.faces_of_dim(1)) == comb(6, 2)
    assert set(edge_facet_counts(K).values()) == {2}


@pytest.mark.parametrize("surface", [gen.torus7, gen.projective_plane6], ids=lambda f: f.__name__)
def test_surface_vertex_links_are_single_cycles(surface):
    """Every vertex link is one cycle through the other n - 1 vertices: each of
    degree 2, and connected, so two disjoint triangles would not pass."""
    K = surface()
    n = len(K.labels)
    for v in range(n):
        L = K.link((v,))
        assert f_vector(L) == [n - 1, n - 1]
        neighbours = {}
        for a, b in L.faces_of_dim(1):
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
        assert {len(nb) for nb in neighbours.values()} == {2}
        start = next(iter(neighbours))
        reached, stack = {start}, [start]
        while stack:
            for w in neighbours[stack.pop()] - reached:
                reached.add(w)
                stack.append(w)
        assert len(reached) == n - 1


def test_cone_examples():
    pt = gen.cone(SimplicialComplex.from_facets([]))
    assert f_vector(pt) == [1]
    C = gen.cone(gen.polygon(3))
    assert f_vector(C) == [4, 6, 3]
    for t in (-2, -1, 0, 1, 2):
        assert f_poly_eval(C, t) == f_poly_eval(gen.polygon(3), t) * (t + 1)


def test_cone_chi_is_one_for_every_nonempty_input():
    for K in (gen.polygon(8), gen.torus7(), gen.simplex_boundary(2)):
        assert euler_characteristic(gen.cone(K)) == 1


def test_suspension_of_square_is_octahedron():
    S = gen.suspension(gen.polygon(4))
    assert f_vector(S) == [6, 12, 8]
    assert oracles.complex_faces(S) == {
        frozenset(m) for m in map(set, _octahedron_faces(S))
    }


def _octahedron_faces(S):
    # the suspension's faces, recomputed by brute force from its facets
    return [set(f) for f in oracles.closure_of([S.labels_of(f) for f in S.facets])]


def test_suspension_of_spheres_is_eulerian():
    for n in range(2, 5):
        assert is_eulerian(gen.suspension(gen.simplex_boundary(n))).holds


def test_suspension_of_torus_is_not_eulerian():
    rep = is_eulerian(gen.suspension(gen.torus7()))
    assert not rep.holds


def test_join_of_points_is_edge():
    pt = lambda name: SimplicialComplex.from_facets([[name]])
    J = gen.join(pt("a"), pt("b"))
    assert f_vector(J) == [2, 1]


def test_join_of_two_triangle_boundaries_is_a_3_sphere():
    J = gen.join(gen.simplex_boundary(2), gen.simplex_boundary(2))
    assert f_vector(J) == [6, 15, 18, 9]
    assert is_eulerian(J).holds
    assert euler_characteristic(J) == 0


def test_join_relabels_the_right_side_with_primes():
    J = gen.join(gen.simplex_boundary(2), gen.simplex_boundary(2))
    assert J.labels == ("0", "1", "2", "0'", "1'", "2'")


def test_join_with_empty_is_identity():
    K = gen.torus7()
    E = SimplicialComplex.from_facets([])
    assert gen.join(K, E) is K
    assert gen.join(E, K) is K


def test_join_face_count_matches_brute_force():
    A, B = gen.polygon(3), gen.simplex_boundary(2)
    J = gen.join(A, B)
    # brute force: unions of (possibly empty) faces of each side
    fa = list(oracles.complex_faces(A)) + [frozenset()]
    fb = [frozenset(lab + "'" for lab in f) for f in oracles.complex_faces(B)]
    fb.append(frozenset())
    want = {a | b for a in fa for b in fb} - {frozenset()}
    assert oracles.complex_faces(J) == want


def test_disjoint_union_adds_f_vectors_componentwise():
    D = gen.disjoint_union(gen.simplex_boundary(3), gen.simplex_boundary(3))
    assert f_vector(D) == [8, 12, 8]
    assert euler_characteristic(D) == 4
    D2 = gen.disjoint_union(gen.torus7(), gen.polygon(4))
    assert f_vector(D2) == [7 + 4, 21 + 4, 14]


def test_disjoint_union_with_empty_is_identity():
    K = gen.polygon(5)
    E = SimplicialComplex.from_facets([])
    assert gen.disjoint_union(K, E) is K
    assert gen.disjoint_union(E, K) is K


def test_disjoint_union_of_mixed_dimensions_is_impure():
    D = gen.disjoint_union(gen.simplex_boundary(3), gen.polygon(3))
    assert not D.is_pure()
    assert not is_eulerian(D).holds


def test_subdivision_of_an_edge_is_a_two_edge_path():
    K = SimplicialComplex.from_facets([["a", "b"]])
    S = gen.barycentric_subdivision(K)
    assert f_vector(S) == [3, 2]
    assert S.labels == ("b{0}", "b{1}", "b{0.1}")


def test_subdivision_of_tetra_boundary():
    S = gen.barycentric_subdivision(gen.simplex_boundary(3))
    assert f_vector(S) == [14, 36, 24]
    assert euler_characteristic(S) == 2
    assert is_eulerian(S).holds
    rep = check_main_formula(S)
    assert rep.holds
    assert rep.values["rhs"] == 14 - 18 + 6 == 2


def test_subdivision_of_empty_complex_is_empty():
    E = SimplicialComplex.from_facets([])
    assert gen.barycentric_subdivision(E).is_empty()


def test_subdivision_counts_chains():
    # face counts of the subdivision are chain counts of the face poset
    K = gen.torus7()
    S = gen.barycentric_subdivision(K)
    faces = list(oracles.complex_faces(K))
    n_chains_2 = sum(
        1 for a in faces for b in faces if a < b
    )
    n_chains_3 = sum(
        1 for a in faces for b in faces for c in faces if a < b < c
    )
    assert f_vector(S) == [len(faces), n_chains_2, n_chains_3]


def permutation_subdivision(K):
    """The barycentric subdivision built with one sorted prefix per element
    of every permutation of every facet: the reference for the subdivision."""
    if K.is_empty():
        return K
    faces = list(K.faces())
    face_ids = {face: i for i, face in enumerate(faces)}
    labels = ["b{" + ".".join(map(str, face)) + "}" for face in faces]
    facets = [
        tuple(face_ids[tuple(sorted(perm[:j]))] for j in range(1, len(perm) + 1))
        for facet in K.facets
        for perm in itertools.permutations(facet)
    ]
    return SimplicialComplex.from_indexed_facets(facets, labels)


@given(
    K=st.builds(
        lambda seed: SimplicialComplex.from_facets(oracles.random_facets(random.Random(seed))),
        st.integers(0, 2**32 - 1),
    )
)
@example(K=SimplicialComplex.from_facets([]))
@example(K=SimplicialComplex.from_facets([["a"], ["b"], ["c"]]))
@example(K=SimplicialComplex.from_facets([["a", "b", "c", "d"], ["d", "e"], ["f"]]))
@example(K=gen.torus7())
def test_subdivision_matches_the_permutation_construction(K):
    assert_same_complex(gen.barycentric_subdivision(K), permutation_subdivision(K))


def assert_same_complex(K, want):
    assert K.facets == want.facets
    assert K.labels == want.labels
    assert K.dim == want.dim
    for i in range(-1, want.dim + 2):
        assert K.faces_of_dim(i) == want.faces_of_dim(i)


def assert_same_as_closure(K):
    """K equals the closure of its own facet list, face for face."""
    assert_same_complex(K, SimplicialComplex.from_indexed_facets(K.facets, K.labels))


def too_large(name, args):
    """Whether the operator name applied to the built complexes args would
    make a large complex."""
    if name == "barycentric_subdivision":
        return args[0].dim > 3 or args[0].num_faces() > 100
    return name == "join" and (args[0].num_faces() + 1) * (args[1].num_faces() + 1) > 5000


def build_checked(spec, check=assert_same_as_closure):
    """Evaluate a spec tree, calling check on every complex it builds.  An
    operator whose result would be large returns its first argument
    instead, so that every tree stays small."""
    args = [build_checked(a, check) for a in spec.args]
    if too_large(spec.name, args):
        return args[0]
    K = gen.REGISTRY[spec.name].build(*spec.params, *args)
    check(K)
    return K


_PARAMS = {
    "simplex_boundary": st.integers(1, 4),
    "cross_polytope_boundary": st.integers(1, 3),
    "polygon": st.integers(3, 5),
}


def _spec_trees(leaf_param=_PARAMS.__getitem__):
    """Random REGISTRY trees of at most four leaves; leaf_param(name) draws
    each integer parameter of a leaf (by default, one that keeps it small)."""
    leaves = st.sampled_from(sorted(n for n, row in gen.REGISTRY.items() if not row.args))
    leaves = leaves.flatmap(
        lambda name: st.tuples(*map(leaf_param, [name] * gen.REGISTRY[name].params)).map(
            lambda params: gen.GeneratorSpec(name, params)
        )
    )
    operators = sorted(n for n, row in gen.REGISTRY.items() if row.args)

    def applied(children):
        return st.sampled_from(operators).flatmap(
            lambda name: st.tuples(*[children] * gen.REGISTRY[name].args).map(
                lambda args: gen.GeneratorSpec(name, (), args)
            )
        )

    return st.recursive(leaves, applied, max_leaves=4)


_S = gen.GeneratorSpec
_MIXED = _S("disjoint_union", (), (_S("simplex_boundary", (3,)), _S("polygon", (4,))))


@given(spec=_spec_trees())
@example(spec=_S("simplex_boundary", (1,)))
@example(spec=_S("cross_polytope_boundary", (1,)))
@example(spec=_MIXED)
@example(spec=_S("join", (), (_MIXED, _S("torus7"))))
@example(spec=_S("barycentric_subdivision", (), (_MIXED,)))
def test_generated_levels_match_the_closure_of_the_facets(spec):
    build_checked(spec)


_small_complexes = st.one_of(
    st.just(SimplicialComplex.from_facets([])),
    st.builds(
        lambda seed: SimplicialComplex.from_facets(
            oracles.random_facets(random.Random(seed), max_vertices=7, max_facets=4, max_size=4)
        ),
        st.integers(0, 2**32 - 1),
    ),
)


@given(K=_small_complexes, L=_small_complexes)
@example(
    K=SimplicialComplex.from_facets([["a", "b", "c", "d"], ["d", "e"], ["f"]]),
    L=SimplicialComplex.from_facets([["x"], ["y", "z"]]),
)
def test_operators_on_facet_lists_match_the_closure(K, L):
    for M in (gen.cone(K), gen.suspension(K), gen.join(K, L), gen.disjoint_union(K, L)):
        assert_same_as_closure(M)
    assert_same_as_closure(gen.barycentric_subdivision(K))


@given(K=_small_complexes)
@example(K=SimplicialComplex.from_facets([["a", "b", "c", "d"], ["d", "e"], ["f"]]))
@example(K=gen.torus7())
def test_subdivisions_are_flag(K):
    """The clique walk, and when it is small the brute-force clique search,
    find every clique of a subdivision to be a face."""
    M = gen.barycentric_subdivision(K)
    assert M.is_flag().holds
    if len(M.labels) <= 14:
        assert oracles.first_nonface_clique(map(M.labels_of, M.facets)) is None


def test_operators_and_polytopes_skip_the_closure(monkeypatch):
    calls = []
    closure = SimplicialComplex.from_indexed_facets.__func__

    def counted(cls, facets, labels):
        calls.append(labels)
        return closure(cls, facets, labels)

    monkeypatch.setattr(SimplicialComplex, "from_indexed_facets", classmethod(counted))
    cone = _S("cone", (), (_S("simplex_boundary", (3,)),))
    joined = _S("join", (), (cone, _S("cross_polytope_boundary", (2,))))
    gen.build(_S("suspension", (), (_S("barycentric_subdivision", (), (joined,)),)))
    assert calls == []
    # A leaf given by its facet list still goes through the closure.
    gen.build(_S("disjoint_union", (), (_S("polygon", (4,)), _S("simplex_boundary", (2,)))))
    assert len(calls) == 1


def test_subdivision_preserves_eulerian_verdicts():
    positives = [gen.simplex_boundary(3), gen.cross_polytope_boundary(2), gen.torus7()]
    for K in positives:
        assert is_eulerian(gen.barycentric_subdivision(K)).holds
    negatives = [SimplicialComplex.from_facets([["a", "b", "c"], ["a", "b", "d"]])]
    for K in negatives:
        assert not is_eulerian(gen.barycentric_subdivision(K)).holds


def test_generator_registry_dispatch():
    spec = gen.GeneratorSpec("suspension", (), (gen.GeneratorSpec("torus7"),))
    K = gen.build(spec)
    assert f_vector(K) == [9, 35, 56, 28]
    assert spec.to_expr() == "suspension(torus7)"
    with pytest.raises(InputError):
        gen.build(gen.GeneratorSpec("nonesuch"))
    with pytest.raises(InputError):
        gen.build(gen.GeneratorSpec("torus7", (3,)))
    with pytest.raises(InputError):
        gen.build(gen.GeneratorSpec("join", (), (gen.GeneratorSpec("torus7"),)))


# -- face counts in closed form ------------------------------------------------


def pruned(spec):
    """(spec', build(spec')): spec with each operator whose result would be
    large replaced by its first argument, as in build_checked."""
    if not spec.args:
        return spec, gen.build(spec)
    specs, built = zip(*map(pruned, spec.args))
    if too_large(spec.name, built):
        return specs[0], built[0]
    K = gen.REGISTRY[spec.name].build(*spec.params, *built)
    return _S(spec.name, spec.params, specs), K


_TORUS = _S("torus7")
# the mixed-dimensional union under every operator, on either side
_OVER_MIXED = [
    _MIXED,
    _S("cone", (), (_MIXED,)),
    _S("suspension", (), (_MIXED,)),
    _S("join", (), (_MIXED, _TORUS)),
    _S("join", (), (_TORUS, _MIXED)),
    _S("disjoint_union", (), (_MIXED, _TORUS)),
    _S("disjoint_union", (), (_MIXED, _MIXED)),
    _S("barycentric_subdivision", (), (_MIXED,)),
    _S("cone", (), (_S("barycentric_subdivision", (), (_MIXED,)),)),
]


@given(spec=_spec_trees())
@example(spec=_S("disjoint_union", (), (_TORUS, _S("polygon", (6,)))))
@example(spec=_S("join", (), (_S("barycentric_subdivision", (), (_TORUS,)), _S("polygon", (5,)))))
@example(spec=_S("barycentric_subdivision", (), (_S("cross_polytope_boundary", (3,)),)))
def test_face_counts_match_the_built_complex(spec):
    spec, K = pruned(spec)
    counts = gen.face_counts(spec)
    assert counts.dim == K.dim
    assert counts.by_size == K.by_size
    assert f_vector(counts) == f_vector(K)
    assert counts.is_pure() == K.is_pure()
    assert counts.is_empty() is False


@pytest.mark.parametrize("spec", _OVER_MIXED, ids=_S.to_expr)
def test_face_counts_of_impure_unions_under_every_operator(spec):
    K = gen.build(spec)
    counts = gen.face_counts(spec)
    assert (f_vector(counts), counts.is_pure()) == (f_vector(K), K.is_pure())
    assert not K.is_pure()


def test_face_counts_leaves_are_the_closed_forms():
    sb = gen.face_counts(_S("simplex_boundary", (40,)))
    assert f_vector(sb) == [comb(41, i + 1) for i in range(40)]
    cp = gen.face_counts(_S("cross_polytope_boundary", (30,)))
    assert f_vector(cp) == [2 ** (i + 1) * comb(30, i + 1) for i in range(30)]
    assert f_vector(gen.face_counts(_S("polygon", (10**12,)))) == [10**12, 10**12]
    for name in ("torus7", "projective_plane6"):
        assert f_vector(gen.face_counts(_S(name))) == f_vector(gen.build(_S(name)))


def test_leaf_counts_are_the_binomials_for_every_small_n():
    for n in range(1, 301):
        sb = gen.face_counts(_S("simplex_boundary", (n,)))
        assert sb.by_size == tuple(comb(n + 1, s) for s in range(n + 1))
        cp = gen.face_counts(_S("cross_polytope_boundary", (n,)))
        assert cp.by_size == tuple(2**s * comb(n, s) for s in range(n + 1))


@given(spec=_spec_trees())
@example(spec=_S("simplex_boundary", (1,)))
@example(spec=_S("simplex_boundary", (4,)))
@example(spec=_S("polygon", (3,)))
@example(spec=_S("polygon", (4,)))
@example(spec=_TORUS)
@example(spec=_S("projective_plane6"))
@example(spec=_S("cross_polytope_boundary", (3,)))
@example(spec=_S("join", (), (_S("polygon", (4,)), _S("simplex_boundary", (2,)))))
@example(spec=_S("disjoint_union", (), (_S("simplex_boundary", (3,)), _S("projective_plane6"))))
@example(spec=_S("join", (), (_S("barycentric_subdivision", (), (_TORUS,)), _S("polygon", (3,)))))
@example(spec=_S("join", (), (_S("polygon", (4,)), _S("simplex_boundary", (6,)))))
@example(
    spec=_S("join", (), (
        _S("polygon", (4,)),
        _S("disjoint_union", (), (_S("polygon", (4,)), _S("simplex_boundary", (2,)))),
    ))
)
@example(spec=_S("suspension", (), (_S("disjoint_union", (), (_TORUS, _S("polygon", (3,)))),)))
def test_face_counts_flag_witness_is_the_clique_walks(spec):
    """The verdict, witness and witness labels the count rules give are
    those of the clique walk on the built complex."""
    spec, K = pruned(spec)
    walked = K.is_flag()
    counted = gen.face_counts(spec).is_flag()
    assert (counted.holds, counted.witness) == (walked.holds, walked.witness)
    assert counted.values == walked.values


_DIGIT_LABEL = re.compile(r"[0-9]+'*")


@given(spec=_spec_trees())
@example(spec=_S("join", (), (
    _S("join", (), (_S("polygon", (5,)), _S("polygon", (3,)))),
    _S("join", (), (_S("polygon", (4,)), _TORUS)),
)))
def test_face_counts_label_every_digit_vertex_as_built(spec):
    """The count rules label every vertex whose built label is digits and
    primes as the build does, and refuse every other vertex."""
    spec, K = pruned(spec)
    counts = gen.face_counts(spec)
    for v, label in enumerate(K.labels):
        if _DIGIT_LABEL.fullmatch(label):
            assert counts.labels_of((v,)) == K.labels_of((v,))
        else:
            with pytest.raises(KeyError):
                counts.labels_of((v,))


def cli_outcome(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@given(
    spec=_spec_trees(),
    names=st.lists(
        st.sampled_from(("ds", "formula", "proof", "flag", "eulerian", "--all")),
        min_size=1,
        unique=True,
    ),
    as_json=st.booleans(),
)
@example(spec=_MIXED, names=["ds", "formula", "proof", "flag"], as_json=True)
@example(spec=_S("barycentric_subdivision", (), (_MIXED,)), names=["proof"], as_json=False)
@example(spec=_S("join", (), (_S("polygon", (4,)), _S("simplex_boundary", (6,)))), names=["flag"],
         as_json=False)
@example(spec=_S("disjoint_union", (), (_S("simplex_boundary", (3,)), _S("projective_plane6"))),
         names=["flag", "eulerian"], as_json=False)
@example(spec=_S("join", (), (_S("polygon", (4,)), _S("simplex_boundary", (2,)))),
         names=["--all", "flag"], as_json=True)
def test_counts_report_equals_the_report_of_the_built_complex(spec, names, as_json):
    """info --gen and check --gen, whichever checks they select, print, byte
    for byte, what the same command prints when the built complex answers
    the header and the counts-reading checks too."""
    spec, _ = pruned(spec)
    for argv in (["check", "--gen", spec.to_expr(), *names], ["info", "--gen", spec.to_expr()]):
        argv += ["--json"] * as_json
        from_counts = cli_outcome(argv)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "face_counts", gen.build)
            assert cli_outcome(argv) == from_counts


@pytest.mark.parametrize("argv", [["check", "--gen", "simplex_boundary:14500", "ds"],
                                  ["info", "--gen", "simplex_boundary:14500"]])
def test_a_huge_leaf_fails_on_its_digits_within_seconds(argv):
    """The leaf's binomials are running products, so the counts of a leaf too
    large to report come in well under a second, and the report fails when
    its f-vector is compared with the digit limit, before any entry is
    converted."""
    start = time.monotonic()
    outcome = cli_outcome(argv)
    assert time.monotonic() - start < 1.0
    digits = sys.get_int_max_str_digits()
    assert outcome == (2, "", f"error: a reported number has more than {digits} digits\n")


_MALFORMED = {
    "nonesuch": "unknown generator 'nonesuch'",
    "torus7:3": "torus7 takes 0 integer parameter(s), got 1",
    "polygon": "polygon takes 1 integer parameter(s), got 0",
    "simplex_boundary:3:4": "simplex_boundary takes 1 integer parameter(s), got 2",
    "join(torus7)": "join takes 2 complex argument(s), got 1",
    "cone(torus7, torus7)": "cone takes 1 complex argument(s), got 2",
    "torus7(polygon:4)": "torus7 takes 0 complex argument(s), got 1",
    "simplex_boundary:0": "simplex_boundary needs n >= 1, got 0",
    "cross_polytope_boundary:-1": "cross_polytope_boundary needs n >= 1, got -1",
    "polygon:2": "polygon needs n >= 3, got 2",
    # nested: the first bad node in the order the tree is walked, each node
    # checked before its arguments and the arguments left to right
    "cone(nonesuch)": "unknown generator 'nonesuch'",
    "suspension(polygon:2)": "polygon needs n >= 3, got 2",
    "barycentric_subdivision(simplex_boundary:0)": "simplex_boundary needs n >= 1, got 0",
    "join(torus7, join(polygon:2, nonesuch))": "polygon needs n >= 3, got 2",
    "join(torus7, join(nonesuch, polygon:2))": "unknown generator 'nonesuch'",
    "disjoint_union(polygon:4, cone(torus7, polygon:2))": "cone takes 1 complex argument(s), got 2",
    "disjoint_union(simplex_boundary:0, polygon:4:5)": "simplex_boundary needs n >= 1, got 0",
    "cone(suspension(polygon:4, simplex_boundary:0))":
        "suspension takes 1 complex argument(s), got 2",
    "barycentric_subdivision:2(polygon:2)":
        "barycentric_subdivision takes 0 integer parameter(s), got 1",
}


@given(spec=_spec_trees(lambda name: st.integers()))
@example(spec=_S("polygon", (-3,)))
def test_expressions_round_trip(spec):
    """The grammar reads back what to_expr writes, whatever the integer
    parameters: it accepts -?[0-9]+, and checks no range."""
    assert gen.parse_generator_expr(spec.to_expr()) == spec


@pytest.mark.parametrize("expr", sorted(_MALFORMED))
def test_malformed_trees_raise_the_same_error_on_both_evaluations(expr):
    spec = cli.parse_generator_expr(expr)
    for evaluate in (gen.build, gen.face_counts):
        with pytest.raises(InputError) as caught:
            evaluate(spec)
        assert str(caught.value) == _MALFORMED[expr]
