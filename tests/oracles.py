"""Independent brute-force reference computations.

These deliberately avoid the library's own closure, link, and transform
code paths: faces are enumerated from scratch with itertools, and h-vectors
come from symbolic expansion in sympy.  Expected values frozen into the
tests were produced (or re-checked) by these functions.
"""

import itertools

import sympy


def closure_of(facets):
    """All nonempty subsets of the given facets, as frozensets of labels."""
    faces = set()
    for facet in facets:
        items = list(facet)
        for k in range(1, len(items) + 1):
            for sub in itertools.combinations(items, k):
                faces.add(frozenset(sub))
    return faces


def vertex_ids(facets):
    """Labels numbered in first-appearance order, as the library interns them."""
    return {v: i for i, v in enumerate(dict.fromkeys(v for facet in facets for v in facet))}


def maximal_of(faces):
    """The inclusion-maximal members of a set of frozensets."""
    return {f for f in faces if not any(f < g for g in faces)}


def first_nonface_clique(facets):
    """The first clique of the 1-skeleton that is not a face, or None.

    Cliques are tried by size, then in lexicographic order of their sorted
    vertex ids, with the faces taken from ``closure_of``.  The search stops
    at the first size with no clique at all, since every larger clique
    contains one of that size.
    """
    faces = closure_of(facets)
    ids = vertex_ids(facets)
    label = {i: v for v, i in ids.items()}
    for size in range(3, len(ids) + 1):
        any_clique = False
        for clique in itertools.combinations(range(len(ids)), size):
            labels = [label[i] for i in clique]
            if all(frozenset(e) in faces for e in itertools.combinations(labels, 2)):
                if frozenset(labels) not in faces:
                    return clique
                any_clique = True
        if not any_clique:
            break
    return None


def link_of(faces, sigma):
    """Brute-force link: every tau disjoint from sigma with tau | sigma a face."""
    sigma = frozenset(sigma)
    return {tau for tau in faces if not (tau & sigma) and (tau | sigma) in faces}


def f_counts(faces):
    if not faces:
        return []
    top = max(len(f) for f in faces)
    return [sum(1 for f in faces if len(f) == k + 1) for k in range(top)]


def chi_of(faces):
    return sum((-1) ** (len(f) - 1) for f in faces)


def h_coeffs(fv):
    """h-vector from symbolic expansion of the shifted face polynomial."""
    t = sympy.symbols("t")
    d = len(fv)
    poly = (t - 1) ** d + sum(c * (t - 1) ** (d - 1 - i) for i, c in enumerate(fv))
    coeffs = sympy.Poly(sympy.expand(poly), t).all_coeffs()
    return [0] * (d + 1 - len(coeffs)) + [int(c) for c in coeffs]


def complex_faces(K):
    """A library complex's faces as frozensets of labels, for set comparison."""
    return {frozenset(K.labels_of(f)) for f in K.faces()}


def random_facets(rng, max_vertices=10, max_facets=8, max_size=5):
    """Random facet lists over at most max_vertices labeled vertices."""
    n = rng.randint(1, max_vertices)
    labels = [f"v{i}" for i in range(n)]
    return [
        rng.sample(labels, rng.randint(1, min(max_size, n)))
        for _ in range(rng.randint(1, max_facets))
    ]
