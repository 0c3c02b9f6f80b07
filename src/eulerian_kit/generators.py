"""Constructions of test complexes, and the generator expressions that name them.

Canonical closed manifolds (simplex and cross-polytope boundaries, polygons,
the 7-vertex torus, the 6-vertex projective plane) plus operators (cone,
suspension, join, disjoint union, barycentric subdivision).  The two surfaces
are transcribed facet lists; their face counts, ridge incidence and vertex
links are checked by the tests, not at each build.

A generator expression such as `join(polygon:5, torus7)` is parsed by
`parse_generator_expr` into a `GeneratorSpec` tree, which `to_expr` writes
back.  A tree can be evaluated two ways: `build` makes the complex, and
`face_counts` gives only its face counts, purity and flag witness, in
closed form, without making a face.  The checks that read no more than the
dimension and the f-vector (Dehn-Sommerville, the main formula and the
proof trace), and the flag test, run on either; for a `--gen` input the
command line reads them from the counts, and builds only for a check that
reads faces.
Each generator is one `REGISTRY` row: its builder, its count rule and its
arity.  Both evaluations walk the tree through `_apply`, and each leaf checks
its parameter with `_at_least`, so a malformed expression raises the same
InputError on either.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from operator import add, attrgetter

from .complexes import Face, SimplicialComplex
from .errors import InputError
from .reports import CheckReport


def _at_least(least: int, name: str, n: int) -> None:
    """The parameter check of a leaf, made by its builder and its count rule."""
    if n < least:
        raise InputError(f"{name} needs n >= {least}, got {n}")


def simplex_boundary(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex: every proper nonempty subset of n+1 vertices."""
    _at_least(1, "simplex_boundary", n)
    labels = [str(i) for i in range(n + 1)]
    levels = [frozenset(itertools.combinations(range(n + 1), k + 1)) for k in range(n)]
    return SimplicialComplex(levels, levels[n - 1], labels)


def cross_polytope_boundary(n: int) -> SimplicialComplex:
    """Boundary of the n-dimensional cross-polytope.

    The join of its n axes, axis i being the poles p_i and m_i, so the faces
    are the subsets containing no antipodal pair and the facets pick one
    pole per axis.  The axes are joined halves first, which at large n is
    faster than joining them one at a time.
    """
    _at_least(1, "cross_polytope_boundary", n)

    def axes(lo: int, hi: int) -> SimplicialComplex:
        if hi - lo == 1:
            return _points(f"p{hi}", f"m{hi}")
        mid = (lo + hi) // 2
        return join(axes(lo, mid), axes(mid, hi))

    return axes(0, n)


def polygon(n: int) -> SimplicialComplex:
    """Cycle on n vertices."""
    _at_least(3, "polygon", n)
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
    return SimplicialComplex([points], points, labels)


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
    levels = []
    for size in range(1, A.dim + B.dim + 3):
        sizes = range(max(0, size - B.dim - 1), min(size, A.dim + 1) + 1)
        pairs = (itertools.product(a_faces[i], b_faces[size - i]) for i in sizes)
        levels.append(frozenset(itertools.starmap(add, itertools.chain.from_iterable(pairs))))
    facets = itertools.starmap(add, itertools.product(A.facets, _shifted(B.facets, shift)))
    return SimplicialComplex(levels, facets, _merge_labels(A, B))


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
    levels = [
        A.faces_of_dim(k).union(_shifted(B.faces_of_dim(k), shift))
        for k in range(max(A.dim, B.dim) + 1)
    ]
    facets = [*A.facets, *_shifted(B.facets, shift)]
    return SimplicialComplex(levels, facets, _merge_labels(A, B))


def barycentric_subdivision(K: SimplicialComplex) -> SimplicialComplex:
    """Order complex of the face poset.

    One new vertex per nonempty face, labeled b{...} with the original ids;
    its faces are the chains of faces and its facets the maximal chains.
    The chains are built one length at a time and grouped by their top
    face: those of length s ending at a face are the chains of length s - 1
    ending at its proper sub-faces, each extended by the face.  A chain is
    maximal when it ends at a facet and is as long as the facet.  Only the
    chains of two lengths are held in lists at a time.  (The empty complex
    comes back unchanged.)
    """
    if K.is_empty():
        return K
    faces = list(K.faces())
    labels = ["b{" + ".".join(map(str, face)) + "}" for face in faces]
    # Ids follow (dimension, lex) order, so they increase along each chain.
    face_id = {face: i for i, face in enumerate(faces)}
    # ends[face]: the chains of the current length whose top face is face.
    ends = {face: [(i,)] for face, i in face_id.items()}
    levels = [list(itertools.chain.from_iterable(ends.values()))]
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
        levels.append(frozenset(itertools.chain.from_iterable(ends.values())))
        facets += itertools.chain.from_iterable(ends[f] for f in K.facets if len(f) == size)
    del ends
    return SimplicialComplex(levels, facets, labels)


# -- face counts in closed form ----------------------------------------------


class FaceCounts(namedtuple("FaceCounts", "by_size pure witness digits",
                            defaults=(True, None, ()))):
    """The face counts, purity and flag witness of a complex, without its faces.

    by_size[s] counts the faces with s vertices: by_size[0] = 1 is the empty
    face and by_size[i + 1] = f_i.  witness is the clique that
    SimplicialComplex.is_flag returns, the lex-least of the least non-face
    cliques, as vertex ids; None when the complex is flag.  digits are the
    digit-shaped labels ("3", "3''"), the only ones a witness can carry and
    the only ones its labels can collide with: one pair (offset, n) per
    numbered leaf, in id order, whose vertices offset + k, 0 <= k < n, are
    labeled k with one prime per earlier leaf that has more than k vertices.
    It answers the queries of SimplicialComplex that the f-vector and the
    checks built on it read: by_size, dim, is_empty, is_pure, is_flag, and
    labels_of for the witness's vertices.  So face_counts(spec).is_flag()
    is build(spec).is_flag() in closed form, where the built complex walks
    its cliques.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.by_size) - 2

    def is_empty(self) -> bool:
        return self.dim == -1

    def is_pure(self) -> bool:
        return self.pure

    def labels_of(self, face: Face) -> tuple[str, ...]:
        """The labels of vertices with digit-shaped labels, as the witness's."""
        return tuple(map(self._digit_label, face))

    def _digit_label(self, v: int) -> str:
        for i, (offset, n) in enumerate(self.digits):
            k = v - offset
            if 0 <= k < n:
                return str(k) + "'" * sum(m > k for _, m in self.digits[:i])
        raise KeyError(f"vertex {v} has no digit-shaped label")

    def is_flag(self) -> CheckReport:
        if self.witness is None:
            return CheckReport(holds=True)
        labels = self.labels_of(self.witness)
        return CheckReport(holds=False, witness=self.witness, values={"witness_labels": labels})


def _numbered(by_size: tuple[int, ...], witness: Face | None = None) -> FaceCounts:
    """The FaceCounts of a leaf whose vertex labels are its ids in decimal."""
    return FaceCounts(by_size, witness=witness, digits=((0, by_size[1]),))


def _simplex_boundary_counts(n: int) -> FaceCounts:
    # C(n + 1, s) from C(n + 1, s - 1); the n + 1 vertices are the only
    # non-face clique once they span edges
    _at_least(1, "simplex_boundary", n)
    by_size = itertools.accumulate(range(n), lambda c, s: c * (n + 1 - s) // (s + 1), initial=1)
    return _numbered(tuple(by_size), tuple(range(n + 1)) if n >= 2 else None)


def _cross_polytope_counts(n: int) -> FaceCounts:
    # a face picks s of the n axes and one pole of each: 2^s C(n, s); the
    # only minimal non-faces are the antipodal edges, so every clique is a face
    _at_least(1, "cross_polytope_boundary", n)
    by_size = itertools.accumulate(range(n), lambda c, s: c * 2 * (n - s) // (s + 1), initial=1)
    return FaceCounts(tuple(by_size))


def _polygon_counts(n: int) -> FaceCounts:
    _at_least(3, "polygon", n)
    return _numbered((1, n, n), (0, 1, 2) if n == 3 else None)


def _merged(A: FaceCounts, B: FaceCounts, by_size, pure: bool) -> FaceCounts:
    """The FaceCounts of a join or disjoint union of A and B with these
    counts.  B's ids shift up by A's vertex count.  Each clique of either is
    a union of a clique of each side, and a non-face when a part is, so the
    least non-face cliques are A's or B's, and A's come first on a tie.

    B's numbered leaves follow A's.  _merge_labels gives B's j-th label of
    stem k the fewest primes, at least j, not in use: A's stem-k labels use
    0..a-1 and B's earlier ones a..a+j-1, so it takes a + j, one per earlier
    leaf with more than k vertices, as FaceCounts.digits reads.  No other
    label is digit-shaped, so none blocks one."""
    shift = A.by_size[1]
    witness = A.witness
    if B.witness is not None and (witness is None or len(B.witness) < len(witness)):
        witness = tuple(v + shift for v in B.witness)
    digits = A.digits + tuple((offset + shift, n) for offset, n in B.digits)
    return FaceCounts(tuple(by_size), pure, witness, digits)


def _join_counts(A: FaceCounts, B: FaceCounts) -> FaceCounts:
    """A face of the join is a face of A and a face of B, not both empty, so
    the counts multiply as polynomials; the facets are unions of facets."""
    by_size = [0] * (len(A.by_size) + len(B.by_size) - 1)
    for i, a in enumerate(A.by_size):
        for j, b in enumerate(B.by_size):
            by_size[i + j] += a * b
    return _merged(A, B, by_size, A.pure and B.pure)


def _disjoint_union_counts(A: FaceCounts, B: FaceCounts) -> FaceCounts:
    """The counts add, but for one shared empty face; pure when both sides
    are pure of one dimension (every generator makes a nonempty complex)."""
    by_size = [a + b for a, b in itertools.zip_longest(A.by_size, B.by_size, fillvalue=0)]
    by_size[0] = 1
    return _merged(A, B, by_size, A.pure and B.pure and A.dim == B.dim)


def _subdivision_counts(K: FaceCounts) -> FaceCounts:
    """A face of sd K with j vertices is a chain of j faces; the chains
    topped by one face with i vertices are the ordered partitions of it into
    j blocks, t(i, j) = j! S(i, j) of them.  One vertex is a block of its
    own, in one of j places, or joins one of the j blocks of the others, so
    t(i, j) = j (t(i-1, j-1) + t(i-1, j)), from t(0, 0) = 1 for the empty
    face alone.  Its facets are the maximal chains, each as long as its top
    facet, so purity carries over.  It is flag, since vertices are adjacent
    exactly when their faces are comparable, so a clique is a chain; and
    its labels b{...} are not digit-shaped."""
    by_size = [0] * len(K.by_size)
    row = [1]  # t(i, 0..i)
    for c in K.by_size:
        for j, t in enumerate(row):
            by_size[j] += c * t
        row = [j * (a + b) for j, (a, b) in enumerate(zip([0, *row], [*row, 0]))]
    return FaceCounts(tuple(by_size), K.pure)


# the sides of a cone and of a suspension: flag, labeled apex, apex0, apex1
_POINT = FaceCounts((1, 1))
_TWO_POINTS = FaceCounts((1, 2))


# -- generator expressions: name[:p][(arg, arg)] ------------------------------


class GeneratorSpec(namedtuple("GeneratorSpec", "name params args", defaults=((), ()))):
    """A generator invocation: name, integer params, nested complex args."""

    __slots__ = ()

    def to_expr(self) -> str:
        expr = self.name
        if self.params:
            expr += "".join(f":{p}" for p in self.params)
        if self.args:
            expr += "(" + ", ".join(a.to_expr() for a in self.args) + ")"
        return expr


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"-?[0-9]+")
# parsing, build and face_counts recurse once per level; real expressions
# are far shallower
MAX_NESTING = 100


def parse_generator_expr(text: str) -> GeneratorSpec:
    """The GeneratorSpec that text writes; to_expr writes it back."""
    spec, pos = _parse_expr(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise InputError(f"generator expression: unexpected {text[pos]!r} at column {pos + 1}")
    return spec


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_expr(text, pos, depth=0):
    if depth > MAX_NESTING:
        raise InputError(
            f"generator expression: nested deeper than {MAX_NESTING} levels at column {pos + 1}"
        )
    pos = _skip_ws(text, pos)
    m = _NAME.match(text, pos)
    if not m:
        raise InputError(f"generator expression: name expected at column {pos + 1}")
    name, pos = m.group(), m.end()
    params = []
    while pos < len(text) and text[pos] == ":":
        m = _INT.match(text, pos + 1)
        if not m:
            raise InputError(f"generator expression: integer expected at column {pos + 2}")
        try:
            params.append(int(m.group()))
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise InputError(
                f"generator expression: integer too long at column {pos + 2}"
            ) from None
        pos = m.end()
    args = []
    ahead = _skip_ws(text, pos)
    if ahead < len(text) and text[ahead] == "(":
        pos = ahead + 1
        while True:
            spec, pos = _parse_expr(text, pos, depth + 1)
            args.append(spec)
            pos = _skip_ws(text, pos)
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            if pos < len(text) and text[pos] == ")":
                pos += 1
                break
            raise InputError(
                f"generator expression: ',' or ')' expected at column {pos + 1}"
            )
    return GeneratorSpec(name, tuple(params), tuple(args)), pos


# -- the registry and the two evaluations --------------------------------------


# One row per generator: build(*params, *complexes) -> SimplicialComplex,
# counts(*params, *counts) -> the FaceCounts of its output, and its number of
# integer params and of complex args.
Generator = namedtuple("Generator", "build counts params args")
REGISTRY = {
    "simplex_boundary": Generator(simplex_boundary, _simplex_boundary_counts, 1, 0),
    "cross_polytope_boundary": Generator(cross_polytope_boundary, _cross_polytope_counts, 1, 0),
    "polygon": Generator(polygon, _polygon_counts, 1, 0),
    "torus7": Generator(torus7, lambda: _numbered((1, 7, 21, 14), (0, 1, 2)), 0, 0),
    "projective_plane6": Generator(
        projective_plane6, lambda: _numbered((1, 6, 15, 10), (0, 1, 3)), 0, 0
    ),
    "cone": Generator(cone, lambda K: _join_counts(K, _POINT), 0, 1),
    "suspension": Generator(suspension, lambda K: _join_counts(K, _TWO_POINTS), 0, 1),
    "join": Generator(join, _join_counts, 0, 2),
    "disjoint_union": Generator(disjoint_union, _disjoint_union_counts, 0, 2),
    "barycentric_subdivision": Generator(barycentric_subdivision, _subdivision_counts, 0, 1),
}


def _apply(spec: GeneratorSpec, pick, evaluate):
    """pick(row) of spec's REGISTRY row applied to spec's parameters and to
    evaluate(arg) of each argument, left to right.  The node's name and
    arity are checked first, so the two evaluations below raise the same
    InputError, in the same order, on every malformed tree."""
    row = REGISTRY.get(spec.name)
    if row is None:
        raise InputError(f"unknown generator {spec.name!r}")
    if len(spec.params) != row.params:
        raise InputError(
            f"{spec.name} takes {row.params} integer parameter(s), got {len(spec.params)}"
        )
    if len(spec.args) != row.args:
        raise InputError(
            f"{spec.name} takes {row.args} complex argument(s), got {len(spec.args)}"
        )
    return pick(row)(*spec.params, *map(evaluate, spec.args))


def build(spec: GeneratorSpec) -> SimplicialComplex:
    """Evaluate a generator spec tree."""
    return _apply(spec, attrgetter("build"), build)


def face_counts(spec: GeneratorSpec) -> FaceCounts:
    """The face counts, purity and flag witness of build(spec), in closed
    form: no face is made, so this costs a few polynomial products per
    node, whatever the size of the complex."""
    return _apply(spec, attrgetter("counts"), face_counts)
