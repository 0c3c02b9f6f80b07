"""Construction, closure, link/star, and structural predicates."""

import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eulerian_kit import InputError, SimplicialComplex, f_vector, is_eulerian
from eulerian_kit import generators as gen
from eulerian_kit.cli import parse_generator_expr
from eulerian_kit.facetio import facet_rows

import oracles


def test_single_triangle_closure():
    K = SimplicialComplex.from_facets([["a", "b", "c"]])
    assert K.dim == 2
    assert f_vector(K) == [3, 3, 1]
    assert oracles.complex_faces(K) == oracles.closure_of([["a", "b", "c"]])


def test_tetrahedron_boundary_from_four_triangles():
    facets = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
    K = SimplicialComplex.from_facets(facets)
    assert f_vector(K) == oracles.f_counts(oracles.closure_of(facets)) == [4, 6, 4]
    assert K.by_size == (1, *oracles.f_counts(oracles.closure_of(facets)))


def test_empty_input_gives_empty_complex():
    K = SimplicialComplex.from_facets([])
    assert K.dim == -1
    assert f_vector(K) == []
    assert K.by_size == (1,)
    assert K.facets == ()
    assert K.is_empty()


def test_duplicate_vertex_in_facet_rejected():
    with pytest.raises(InputError):
        SimplicialComplex.from_facets([["a", "b", "a"]])


RANGE = r"each vertex id in range\(\d+\) and no other"
INCREASING = "strictly increasing tuple"
UNIQUE = "labels must be unique"

BAD_INDEXED = [
    ([(1, 2)], ["a", "b"], RANGE),  # id 2 is past the table and id 0 is unused
    ([(-1, 0)], ["a", "b"], RANGE),
    ([(1, 0)], ["a", "b"], INCREASING),
    ([(0, 0)], ["a"], INCREASING),
    ([(0, 2, 1), (3,)], ["a", "b", "c", "d"], INCREASING),  # the inversion is not in the prefix
    ([(0,)], ["a", "b"], RANGE),
    ([(0,), (1,)], ["a", "a"], UNIQUE),
    # ids equal to ints but not ints, which a test of the id set alone takes
    ([(0.0, 1.0), (1, 2), (0, 2)], ["a", "b", "c"], RANGE),
    ([(False, True)], ["a", "b"], RANGE),
    ([(0, 1), (1.0, 2), (0, 2)], ["a", "b", "c"], RANGE),  # {1, 1.0} has one element
]


@pytest.mark.parametrize("facets, labels, message", BAD_INDEXED)
def test_indexed_facets_must_be_increasing_ids_over_the_whole_table(facets, labels, message):
    with pytest.raises(InputError, match=message):
        SimplicialComplex.from_indexed_facets(facets, labels)


def test_bad_indexed_facets_are_refused_before_the_closure(monkeypatch):
    calls = []
    closure = SimplicialComplex._closure.__func__

    def counted(cls, facets, labels):
        calls.append(labels)
        return closure(cls, facets, labels)

    monkeypatch.setattr(SimplicialComplex, "_closure", classmethod(counted))
    for facets, labels, message in BAD_INDEXED:
        with pytest.raises(InputError, match=message):
            SimplicialComplex.from_indexed_facets(facets, labels)
    assert calls == []
    # the facets may be any iterable, read once
    K = SimplicialComplex.from_indexed_facets(iter([[1, 2], (0,), (0, 1)]), ["a", "b", "c"])
    assert calls == [["a", "b", "c"]]
    assert K.facets == ((0, 1), (1, 2))


def test_duplicate_labels_are_reported_after_face_errors():
    with pytest.raises(InputError, match="labels must be unique"):
        SimplicialComplex.from_indexed_facets([(0, 1)], ["a", "a"])
    with pytest.raises(InputError, match="strictly increasing"):
        SimplicialComplex.from_indexed_facets([(1, 0)], ["a", "a"])


def test_whitespace_and_empty_labels_rejected():
    with pytest.raises(InputError):
        SimplicialComplex.from_facets([["a b", "c"]])
    with pytest.raises(InputError):
        SimplicialComplex.from_facets([["", "c"]])


@pytest.mark.parametrize(
    "facets",
    [
        [[1, "b"]],
        [[["a"], "b"]],  # unhashable: a dict lookup would raise TypeError
        [[None]],
        [["a", "b"], ["b", 2]],  # first seen in a later row
        [["a", "b"], ["b", ["c"]]],
        [["a", "b"], ["b", "c d"]],
        [["a", "b"], ["", "a"]],
    ],
)
def test_bad_tokens_rejected_wherever_they_first_appear(facets):
    with pytest.raises(InputError, match="vertex label"):
        SimplicialComplex.from_facets(facets)


def test_lone_surrogate_label_rejected():
    with pytest.raises(InputError, match="not valid Unicode"):
        SimplicialComplex.from_facets([["\ud800"]])


def test_dominated_and_duplicate_facets_absorbed():
    K = SimplicialComplex.from_facets([["a", "b", "c"], ["a", "b"], ["a", "b", "c"]])
    assert K.facets == ((0, 1, 2),)
    assert f_vector(K) == [3, 3, 1]


def test_empty_facet_rows_skipped():
    K = SimplicialComplex.from_facets([[], ["a"], []])
    assert f_vector(K) == [1]


def test_faces_iterate_in_dimension_then_lex_order():
    K = SimplicialComplex.from_facets([["b", "a", "c"]])
    faces = list(K.faces())
    assert faces == sorted(faces, key=lambda f: (len(f), f))
    # labels intern in first-appearance order: b=0, a=1, c=2
    assert K.labels == ("b", "a", "c")


def test_membership_and_label_round_trip():
    K = SimplicialComplex.from_facets([["x", "y", "z"]])
    face = K.face_from_labels(["z", "x"])
    assert face in K
    assert sorted(K.labels_of(face)) == ["x", "z"]
    with pytest.raises(InputError, match="unknown vertex label"):
        K.face_from_labels(["nope"])


@pytest.mark.parametrize(
    "K",
    [
        SimplicialComplex.from_facets([]),
        SimplicialComplex.from_facets([["a", "b", "c"], ["c", "d"]]),
        gen.simplex_boundary(3),
    ],
    ids=["empty", "closure", "generator"],
)
def test_face_queries_out_of_range_find_nothing(K):
    # a negative dimension must not index the levels from the top
    assert K.faces_of_dim(-1) == K.faces_of_dim(K.dim + 1) == frozenset()
    assert () not in K
    assert tuple(range(K.dim + 2)) not in K
    if K.is_empty():
        assert list(K.faces()) == []


# -- link and star ------------------------------------------------------------


def test_link_of_vertex_in_tetra_boundary_is_triangle_cycle():
    K = gen.simplex_boundary(3)
    L = K.link((0,))
    assert f_vector(L) == [3, 3]
    want = oracles.link_of(oracles.complex_faces(K), {"0"})
    assert oracles.complex_faces(L) == want


def test_link_of_facet_is_empty():
    K = gen.simplex_boundary(3)
    L = K.link(K.facets[0])
    assert L.dim == -1
    assert L.is_empty()


def test_link_of_edge_in_octahedron_is_two_points():
    K = gen.cross_polytope_boundary(3)
    edge = next(iter(K.faces_of_dim(1)))
    L = K.link(edge)
    assert f_vector(L) == [2]
    assert oracles.complex_faces(L) == oracles.link_of(
        oracles.complex_faces(K), set(K.labels_of(edge))
    )


def test_link_preserves_original_labels():
    K = SimplicialComplex.from_facets([["p", "q", "r"], ["q", "r", "s"]])
    L = K.link(K.face_from_labels(["q"]))
    assert set(L.labels) == {"p", "r", "s"}


def test_link_rejects_non_faces_and_empty_face():
    K = gen.polygon(4)
    with pytest.raises(InputError, match=r"\{0,2\} is not a face"):
        K.link((0, 2))  # diagonal is not a face
    with pytest.raises(InputError, match="empty face"):
        K.link(())
    # labels, non-int ids, and a label among ids are not faces either
    for face in [("x",), (1.5,), ("x", 0)]:
        with pytest.raises(InputError, match="is not a face of the complex"):
            K.link(face)
        with pytest.raises(InputError, match="is not a face of the complex"):
            K.star(face)


def test_star_of_vertex_in_single_triangle_is_whole_complex():
    K = SimplicialComplex.from_facets([["a", "b", "c"]])
    assert oracles.complex_faces(K.star((0,))) == oracles.complex_faces(K)


def test_star_of_facet_is_its_closure():
    K = gen.simplex_boundary(3)
    S = K.star(K.facets[0])
    assert f_vector(S) == [3, 3, 1]


def test_star_of_hexagon_vertex_is_two_edge_path():
    K = gen.polygon(6)
    S = K.star((0,))
    assert f_vector(S) == [3, 2]


def test_star_rejects_non_member():
    K = gen.polygon(5)
    with pytest.raises(InputError):
        K.star((0, 2))


@given(st.integers(0, 2**32 - 1))
def test_link_and_star_of_every_face_match_the_oracles(seed):
    rows = oracles.random_facets(random.Random(seed))
    K = SimplicialComplex.from_facets(rows)
    faces = oracles.complex_faces(K)
    for sigma in K.faces():
        sigma_labels = set(K.labels_of(sigma))
        link, star = K.link(sigma), K.star(sigma)
        assert oracles.complex_faces(link) == oracles.link_of(faces, sigma_labels)
        assert oracles.complex_faces(star) == oracles.closure_of(
            [row for row in rows if sigma_labels <= set(row)]
        )
        for L in (link, star):
            # each vertex keeps its label, and the labels keep the parent's id order
            used = set().union(*oracles.complex_faces(L))
            assert L.labels == tuple(lab for lab in K.labels if lab in used)


def test_link_faces_extend_to_star_faces():
    K = gen.torus7()
    for sigma in [(0,), (0, 1), (0, 1, 3)]:
        star_faces = oracles.complex_faces(K.star(sigma))
        sigma_labels = set(K.labels_of(sigma))
        for tau in oracles.complex_faces(K.link(sigma)):
            assert frozenset(tau | sigma_labels) in star_faces


# -- purity and flag ----------------------------------------------------------


def test_is_pure():
    assert gen.simplex_boundary(3).is_pure()
    mixed = SimplicialComplex.from_facets([["a", "b", "c"], ["x", "y"]])
    assert not mixed.is_pure()
    assert SimplicialComplex.from_facets([]).is_pure()


def _random_complex(seed):
    return SimplicialComplex.from_facets(oracles.random_facets(random.Random(seed)))


@given(
    K=st.one_of(
        st.builds(_random_complex, st.integers(0, 2**32 - 1)),
        st.builds(
            gen.disjoint_union,
            st.builds(_random_complex, st.integers(0, 2**32 - 1)),
            st.builds(_random_complex, st.integers(0, 2**32 - 1)),
        ),
    )
)
@example(K=SimplicialComplex.from_facets([]))
@example(K=gen.disjoint_union(gen.polygon(4), gen.simplex_boundary(3)))
@example(K=gen.disjoint_union(gen.simplex_boundary(3), gen.polygon(4)))
@example(K=gen.disjoint_union(gen.simplex_boundary(3), gen.cross_polytope_boundary(3)))
def test_is_pure_matches_every_facet_dimension(K):
    assert K.is_pure() is all(len(f) - 1 == K.dim for f in K.facets)


def test_flag_tetra_boundary_has_k4_witness():
    rep = gen.simplex_boundary(3).is_flag()
    assert not rep.holds
    assert rep.witness == (0, 1, 2, 3)
    assert rep.values["witness_labels"] == ("0", "1", "2", "3")


def test_flag_witness_is_minimal_non_face():
    K = gen.simplex_boundary(3)
    rep = K.is_flag()
    for k in range(1, len(rep.witness)):
        for sub in itertools.combinations(rep.witness, k):
            assert sub in K


def test_flag_positive_cases():
    assert gen.polygon(4).is_flag().holds
    assert gen.cross_polytope_boundary(3).is_flag().holds
    assert SimplicialComplex.from_facets([]).is_flag().holds
    assert SimplicialComplex.from_facets([["a"], ["b"]]).is_flag().holds


# -- structural invariants ------------------------------------------------------


CORPUS = [
    lambda: gen.simplex_boundary(3),
    lambda: gen.cross_polytope_boundary(3),
    lambda: gen.polygon(5),
    lambda: gen.torus7(),
    lambda: gen.projective_plane6(),
    lambda: gen.barycentric_subdivision(gen.simplex_boundary(3)),
    lambda: gen.join(gen.polygon(3), gen.simplex_boundary(2)),
]


@pytest.mark.parametrize("make", CORPUS)
def test_downward_closure_exhaustive(make):
    K = make()
    for face in K.faces():
        for k in range(1, len(face)):
            for sub in itertools.combinations(face, k):
                assert sub in K


@pytest.mark.parametrize("make", CORPUS)
def test_facets_are_exactly_the_maximal_faces(make):
    K = make()
    facets = set(K.facets)
    all_faces = list(K.faces())
    for face in all_faces:
        has_coface = any(
            face != other and set(face) < set(other) for other in all_faces
        )
        assert (face in facets) == (not has_coface)


def random_rows(seed, max_size, extra):
    """Random facet rows, then ``extra`` duplicate or dominated copies of them."""
    rng = random.Random(seed)
    rows = oracles.random_facets(rng, max_vertices=8, max_facets=10, max_size=max_size)
    for _ in range(extra):
        row = rng.choice(rows)
        rows.append(rng.sample(row, rng.randint(1, len(row))))
    return rows


@given(seed=st.integers(0, 2**32 - 1), max_size=st.integers(2, 6), extra=st.integers(0, 4))
def test_closure_and_facets_match_the_oracle(seed, max_size, extra):
    rows = random_rows(seed, max_size, extra)
    K = SimplicialComplex.from_facets(rows)
    faces = oracles.closure_of(rows)
    assert oracles.complex_faces(K) == faces
    ids = oracles.vertex_ids(rows)
    maximal = [tuple(sorted(ids[v] for v in f)) for f in oracles.maximal_of(faces)]
    assert K.facets == tuple(sorted(maximal, key=lambda f: (len(f), f)))


def _stored(K):
    return [K.faces_of_dim(i) for i in range(K.dim + 1)], K.facets, K.labels


@given(seed=st.integers(0, 2**32 - 1), max_size=st.integers(1, 6), extra=st.integers(0, 4))
def test_from_facets_builds_what_the_checked_closure_builds(seed, max_size, extra):
    """from_facets closes without from_indexed_facets' checks and takes its
    0-faces from the labels; both must give the same complex, 1-vertex
    facets (maximal or held by an edge) and mixed dimensions included."""
    rows = random_rows(seed, max_size, extra)
    K = SimplicialComplex.from_facets(rows)
    assert _stored(K) == _stored(SimplicialComplex.from_indexed_facets(K.facets, K.labels))
    ids = oracles.vertex_ids(rows)
    interned = [tuple(sorted(map(ids.__getitem__, row))) for row in rows]
    assert _stored(K) == _stored(SimplicialComplex.from_indexed_facets(interned, list(ids)))


# A complete graph on 8 vertices given as edges only: every triangle is a
# missing clique, and the witness must be the lexicographically first one.
COMPLETE_GRAPH_EDGES = [[f"v{a}", f"v{b}"] for a, b in itertools.combinations(range(8), 2)]


def expr_rows(text):
    return facet_rows(gen.build(parse_generator_expr(text)))


# After the complete graph: flag complexes of dimension 3, then complexes
# whose first level with more cliques than faces is above the edges; the
# last has two such levels, and only the lower one holds the witness.
@given(
    rows=st.builds(
        random_rows, st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(0, 4)
    )
)
@example(rows=COMPLETE_GRAPH_EDGES)
@example(rows=expr_rows("cross_polytope_boundary:4"))
@example(rows=expr_rows("barycentric_subdivision(simplex_boundary:4)"))
@example(rows=expr_rows("simplex_boundary:4"))
@example(rows=expr_rows("join(simplex_boundary:6, simplex_boundary:6)"))
@example(
    rows=expr_rows(
        "disjoint_union(cross_polytope_boundary:4,"
        " disjoint_union(simplex_boundary:4, simplex_boundary:5))"
    )
)
def test_flag_witness_matches_the_oracle(rows):
    report = SimplicialComplex.from_facets(rows).is_flag()
    want = oracles.first_nonface_clique(rows)
    assert report.holds is (want is None)
    assert report.witness == want


def test_f_vector_invariant_under_relabeling():
    rng = random.Random(7)
    facets = [["a", "b", "c"], ["c", "d"], ["d", "e", "a"]]
    K = SimplicialComplex.from_facets(facets)
    names = sorted({v for f in facets for v in f})
    shuffled = names[:]
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    K2 = SimplicialComplex.from_facets([[rename[v] for v in f] for f in facets])
    assert f_vector(K) == f_vector(K2)


def test_codimension_one_links_of_eulerian_complexes_have_two_vertices():
    for K in (gen.simplex_boundary(4), gen.torus7(), gen.projective_plane6()):
        assert is_eulerian(K).holds
        for ridge in K.faces_of_dim(K.dim - 1):
            assert f_vector(K.link(ridge)) == [2]
