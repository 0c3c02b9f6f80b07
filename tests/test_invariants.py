"""f-vectors, polynomials, h-vectors, and Euler characteristics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_kit import (
    SimplicialComplex,
    euler_characteristic,
    f_poly_eval,
    f_polynomial,
    f_vector,
    h_poly_eval,
    h_vector,
)
from eulerian_kit import generators as gen
from eulerian_kit.generators import FaceCounts

import oracles


def test_f_vector_examples():
    assert f_vector(gen.simplex_boundary(3)) == [4, 6, 4]
    assert f_vector(gen.torus7()) == [7, 21, 14]
    assert f_vector(SimplicialComplex.from_facets([["pt"]])) == [1]
    assert f_vector(SimplicialComplex.from_facets([])) == []


def test_f_poly_eval_examples():
    K = gen.simplex_boundary(3)
    assert f_poly_eval(K, 0) == 4  # the constant term is the facet count
    assert f_poly_eval(K, -2) == (-8) + 4 * 4 + 6 * (-2) + 4 == 0
    T = gen.torus7()
    assert f_poly_eval(T, -2) == -8 + 28 - 42 + 14 == -8
    empty = SimplicialComplex.from_facets([])
    assert f_poly_eval(empty, 17) == 1


def test_h_vector_examples_match_symbolic_expansion():
    cases = {
        gen.simplex_boundary(3): [1, 1, 1, 1],
        gen.projective_plane6(): [1, 3, 6, 0],
        gen.torus7(): [1, 4, 10, -1],
    }
    for K, expected in cases.items():
        assert h_vector(K) == expected == oracles.h_coeffs(f_vector(K))


def test_h_vector_of_empty_complex_is_constant_one():
    assert h_vector(SimplicialComplex.from_facets([])) == [1]


def test_h_poly_eval_examples():
    K = gen.simplex_boundary(3)
    assert h_poly_eval(K, 1) == 4 == f_vector(K)[-1]
    P = gen.projective_plane6()
    assert h_poly_eval(P, -1) == -1 + 3 - 6 + 0 == -4


def test_euler_characteristic_examples():
    assert euler_characteristic(gen.simplex_boundary(3)) == 2
    assert euler_characteristic(gen.projective_plane6()) == 6 - 15 + 10 == 1
    assert euler_characteristic(gen.torus7()) == 0
    assert euler_characteristic(SimplicialComplex.from_facets([])) == 0


# -- identities over a corpus ---------------------------------------------------


def _corpus():
    return [
        gen.simplex_boundary(2),
        gen.simplex_boundary(4),
        gen.cross_polytope_boundary(3),
        gen.polygon(7),
        gen.torus7(),
        gen.projective_plane6(),
        gen.cone(gen.polygon(5)),
        gen.suspension(gen.polygon(4)),
        SimplicialComplex.from_facets([["a", "b", "c"], ["c", "d"]]),
        SimplicialComplex.from_facets([["pt"]]),
    ]


def test_h_poly_is_shifted_f_poly_everywhere():
    rng = random.Random(11)
    complexes = _corpus()
    for _ in range(30):
        complexes.append(SimplicialComplex.from_facets(oracles.random_facets(rng)))
    for K in complexes:
        for t in range(-5, 6):
            assert h_poly_eval(K, t) == f_poly_eval(K, t - 1)


def test_h0_is_one_and_h_sums_to_facet_count():
    for K in _corpus():
        h = h_vector(K)
        assert h[0] == 1
        assert sum(h) == f_vector(K)[-1]


def test_pure_nonempty_complexes_have_positive_f_entries():
    for K in (gen.simplex_boundary(5), gen.torus7(), gen.cross_polytope_boundary(4)):
        assert K.is_pure()
        assert all(n > 0 for n in f_vector(K))


def test_leading_coefficient_convention():
    for K in _corpus():
        coeffs = f_polynomial(K)
        assert coeffs[0] == 1
        assert coeffs[1:] == f_vector(K)


def test_join_multiplies_f_polynomials():
    pairs = [
        (gen.simplex_boundary(2), gen.simplex_boundary(2)),
        (gen.polygon(4), SimplicialComplex.from_facets([["pt"]])),
        (gen.torus7(), gen.polygon(3)),
    ]
    for A, B in pairs:
        J = gen.join(A, B)
        for t in (-2, -1, 0, 1, 2):
            assert f_poly_eval(J, t) == f_poly_eval(A, t) * f_poly_eval(B, t)


def test_chi_is_additive_over_disjoint_union():
    A, B = gen.torus7(), gen.simplex_boundary(3)
    assert euler_characteristic(gen.disjoint_union(A, B)) == (
        euler_characteristic(A) + euler_characteristic(B)
    )


def test_chi_of_cone_is_one():
    for K in (gen.polygon(6), gen.torus7(), gen.simplex_boundary(4)):
        assert euler_characteristic(gen.cone(K)) == 1


def test_chi_of_join_inclusion_exclusion():
    for A, B in [(gen.polygon(4), gen.simplex_boundary(2)), (gen.torus7(), gen.polygon(3))]:
        ca, cb = euler_characteristic(A), euler_characteristic(B)
        assert euler_characteristic(gen.join(A, B)) == ca + cb - ca * cb


def test_chi_invariant_under_barycentric_subdivision():
    for K in _corpus():
        assert euler_characteristic(gen.barycentric_subdivision(K)) == euler_characteristic(K)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10**30), max_size=39))
def test_h_vector_of_any_counts_matches_symbolic_expansion(f):
    assert h_vector(FaceCounts((1, *f))) == oracles.h_coeffs(f)


@pytest.mark.parametrize("n", range(2, 7))
def test_simplex_boundary_h_vector_is_all_ones(n):
    assert h_vector(gen.simplex_boundary(n)) == [1] * (n + 1)
