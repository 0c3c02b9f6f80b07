"""Constructions of test complexes.

Canonical closed manifolds (simplex and cross-polytope boundaries, polygons,
the 7-vertex torus, the 6-vertex projective plane) plus operators (cone,
suspension, join, disjoint union, barycentric subdivision).  The two surfaces
are transcribed facet lists; their face counts, ridge incidence and vertex
links are checked by the tests, not at each build.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add

from .complexes import Face, SimplicialComplex
from .errors import InputError


def simplex_boundary(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex: every proper nonempty subset of n+1 vertices."""
    if n < 1:
        raise InputError(f"simplex_boundary needs n >= 1, got {n}")
    labels = [str(i) for i in range(n + 1)]
    levels = {k: frozenset(itertools.combinations(range(n + 1), k + 1)) for k in range(n)}
    return SimplicialComplex._from_levels(levels, levels[n - 1], labels)


def cross_polytope_boundary(n: int) -> SimplicialComplex:
    """Boundary of the n-dimensional cross-polytope.

    Vertices p_i, m_i for i = 1..n; faces are the subsets containing no
    antipodal pair, so the facets pick one sign per axis.  The faces are
    built axis by axis: every face so far, extended by neither pole of the
    next axis or by one of them.

    The result is marked flag: its only minimal non-faces are the antipodal
    edges, so a clique, which contains no antipodal pair, is a face.
    """
    if n < 1:
        raise InputError(f"cross_polytope_boundary needs n >= 1, got {n}")
    labels = []
    for i in range(1, n + 1):
        labels += [f"p{i}", f"m{i}"]
    # by_size[s] holds the faces with s vertices; the poles of axis i are the
    # ids 2i and 2i + 1, above every id so far, so the tuples stay sorted.
    by_size: list[list[Face]] = [[()]]
    for pole in range(0, 2 * n, 2):
        by_size.append([])
        for s in range(len(by_size) - 1, 0, -1):
            by_size[s] += map(add, by_size[s - 1], itertools.repeat((pole,)))
            by_size[s] += map(add, by_size[s - 1], itertools.repeat((pole + 1,)))
    levels = {k: by_size[k + 1] for k in range(n)}
    return SimplicialComplex._from_levels(levels, by_size[n], labels, flag=True)


def polygon(n: int) -> SimplicialComplex:
    """Cycle on n vertices."""
    if n < 3:
        raise InputError(f"polygon needs n >= 3, got {n}")
    labels = [str(i) for i in range(n)]
    facets = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    return SimplicialComplex.from_indexed_facets(facets, labels)


def torus7() -> SimplicialComplex:
    """The 7-vertex torus: facets {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    facets = [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    facets += [tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    return SimplicialComplex.from_indexed_facets(facets, [str(i) for i in range(7)])


PROJECTIVE_PLANE6_FACETS = (
    (0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 3, 4), (0, 4, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)


def projective_plane6() -> SimplicialComplex:
    """The 6-vertex projective plane (the hemi-icosahedron), the unique
    vertex-minimal triangulation of the real projective plane."""
    return SimplicialComplex.from_indexed_facets(
        PROJECTIVE_PLANE6_FACETS, [str(i) for i in range(6)]
    )


# -- operators ---------------------------------------------------------------


def _fresh_label(base: str, used: set[str]) -> str:
    label = base
    while label in used:
        label += "'"
    used.add(label)
    return label


def _merge_labels(A: SimplicialComplex, B: SimplicialComplex):
    labels = list(A.labels)
    used = set(labels)
    labels += [_fresh_label(lab, used) for lab in B.labels]
    return labels


def _shifted(faces, shift: int) -> list[Face]:
    return [tuple(map(shift.__add__, f)) for f in faces]


def _points(*labels: str) -> SimplicialComplex:
    """The complex of isolated vertices with these labels."""
    points = list(zip(range(len(labels))))
    return SimplicialComplex._from_levels({0: points}, points, labels)


def join(A: SimplicialComplex, B: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes over disjoint copies of their vertex sets.

    A keeps its ids; B's ids shift up by A's vertex count, and colliding B
    labels take prime suffixes.  The faces are the unions a + b of a face or
    the empty face of each side, not both empty, each made once; the facets
    are the unions of two facets.
    """
    if A.is_empty():
        return B
    if B.is_empty():
        return A
    shift = len(A.labels)
    # The faces of each side by size, the empty face as the one of size 0.
    # Shifted B ids all exceed A ids, so a + b stays sorted.
    a_faces = [[()], *map(A.faces_of_dim, range(A.dim + 1))]
    b_faces = [[()], *(_shifted(B.faces_of_dim(j), shift) for j in range(B.dim + 1))]
    levels = {}
    for size in range(1, A.dim + B.dim + 3):
        sizes = range(max(0, size - B.dim - 1), min(size, A.dim + 1) + 1)
        pairs = (itertools.product(a_faces[i], b_faces[size - i]) for i in sizes)
        levels[size - 1] = frozenset(itertools.starmap(add, itertools.chain.from_iterable(pairs)))
    facets = itertools.starmap(add, itertools.product(A.facets, _shifted(B.facets, shift)))
    return SimplicialComplex._from_levels(levels, facets, _merge_labels(A, B))


def cone(K: SimplicialComplex) -> SimplicialComplex:
    """Join with a single new apex vertex."""
    return join(K, _points("apex"))


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    """Join with two new isolated vertices."""
    return join(K, _points("apex0", "apex1"))


def disjoint_union(A: SimplicialComplex, B: SimplicialComplex) -> SimplicialComplex:
    """Disjoint union, relabeled the same way as join."""
    if A.is_empty():
        return B
    if B.is_empty():
        return A
    shift = len(A.labels)
    levels = {
        k: A.faces_of_dim(k).union(_shifted(B.faces_of_dim(k), shift))
        for k in range(max(A.dim, B.dim) + 1)
    }
    facets = [*A.facets, *_shifted(B.facets, shift)]
    return SimplicialComplex._from_levels(levels, facets, _merge_labels(A, B))


def barycentric_subdivision(K: SimplicialComplex) -> SimplicialComplex:
    """Order complex of the face poset.

    One new vertex per nonempty face, labeled b{...} with the original ids;
    its faces are the chains of faces and its facets the maximal chains.
    The chains are built one length at a time and grouped by their top
    face: those of length s ending at a face are the chains of length s - 1
    ending at its proper sub-faces, each extended by the face.  A chain is
    maximal when it ends at a facet and is as long as the facet.  Only the
    chains of two lengths are held in lists at a time.

    The result is marked flag: vertices are adjacent exactly when their
    faces are comparable, so a clique is a set of pairwise comparable
    faces, which is a chain.  (The empty complex comes back unchanged.)
    """
    if K.is_empty():
        return K
    faces = list(K.faces())
    labels = ["b{" + ".".join(map(str, face)) + "}" for face in faces]
    # Ids follow (dimension, lex) order, so they increase along each chain.
    face_id = {face: i for i, face in enumerate(faces)}
    # ends[face]: the chains of the current length whose top face is face.
    ends = {face: [(i,)] for face, i in face_id.items()}
    levels = {0: list(itertools.chain.from_iterable(ends.values()))}
    facets = [(face_id[f],) for f in K.facets if len(f) == 1]
    for size in range(2, K.dim + 2):
        shorter, ends = ends, {}
        for k in range(size - 1, K.dim + 1):
            for face in K.faces_of_dim(k):
                below = map(itertools.combinations, itertools.repeat(face), range(size - 1, k + 1))
                chains = map(shorter.__getitem__, itertools.chain.from_iterable(below))
                top = itertools.repeat((face_id[face],))
                ends[face] = list(map(add, itertools.chain.from_iterable(chains), top))
        del shorter
        levels[size - 1] = frozenset(itertools.chain.from_iterable(ends.values()))
        facets += itertools.chain.from_iterable(ends[f] for f in K.facets if len(f) == size)
    del ends
    return SimplicialComplex._from_levels(levels, facets, labels, flag=True)


# -- named access for the CLI -------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """A generator invocation: name, integer params, nested complex args."""

    name: str
    params: tuple[int, ...] = ()
    args: tuple["GeneratorSpec", ...] = ()

    def to_expr(self) -> str:
        expr = self.name
        if self.params:
            expr += "".join(f":{p}" for p in self.params)
        if self.args:
            expr += "(" + ", ".join(a.to_expr() for a in self.args) + ")"
        return expr


# name -> (callable, int param count, complex arg count)
REGISTRY = {
    "simplex_boundary": (simplex_boundary, 1, 0),
    "cross_polytope_boundary": (cross_polytope_boundary, 1, 0),
    "polygon": (polygon, 1, 0),
    "torus7": (torus7, 0, 0),
    "projective_plane6": (projective_plane6, 0, 0),
    "cone": (cone, 0, 1),
    "suspension": (suspension, 0, 1),
    "join": (join, 0, 2),
    "disjoint_union": (disjoint_union, 0, 2),
    "barycentric_subdivision": (barycentric_subdivision, 0, 1),
}


def build(spec: GeneratorSpec) -> SimplicialComplex:
    """Evaluate a generator spec tree."""
    entry = REGISTRY.get(spec.name)
    if entry is None:
        raise InputError(f"unknown generator {spec.name!r}")
    fn, n_params, n_args = entry
    if len(spec.params) != n_params:
        raise InputError(
            f"{spec.name} takes {n_params} integer parameter(s), got {len(spec.params)}"
        )
    if len(spec.args) != n_args:
        raise InputError(
            f"{spec.name} takes {n_args} complex argument(s), got {len(spec.args)}"
        )
    return fn(*spec.params, *(build(a) for a in spec.args))
