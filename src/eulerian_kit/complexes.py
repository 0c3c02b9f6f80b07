"""Finite abstract simplicial complexes.

A complex stores every nonempty face explicitly, in one tuple of levels,
indexed by dimension: either closed downward from a facet list, or handed
over level by level by a construction that already knows its faces.
Faces are tuples of dense vertex ids (strictly increasing); external string
labels are interned in first-appearance order, so identical input always
produces identical ids; a complex keeps them as one tuple indexed by vertex
id.  Instances are immutable after construction and safe to share between
threads.

Conventions: the empty complex has dimension -1; the empty face is a valid
tuple () but is never stored in a complex.
"""

from __future__ import annotations

from itertools import chain, combinations, groupby, pairwise, repeat, starmap
from operator import lt
from typing import Iterable, Iterator, Sequence

from .errors import InputError
from .reports import CheckReport

# A face is a strictly increasing tuple of vertex ids.
Face = tuple[int, ...]


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise InputError(f"vertex label must be a nonempty string, got {label!r}")
    if any(ch.isspace() for ch in label):
        raise InputError(f"vertex label {label!r} contains whitespace")
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, such as the JSON escape "\ud800"
        raise InputError(f"vertex label {label!r} is not valid Unicode") from None
    return label


class SimplicialComplex:
    """Downward-closed set of nonempty faces over a dense vertex range.

    Build instances from a facet list with :meth:`from_facets` (string
    labels) or :meth:`from_indexed_facets` (pre-assigned dense ids, checked
    first).  Both, and :meth:`link` and :meth:`star`, go through the one
    closure, which absorbs dominated input faces and records the maximal
    faces.  The faces are one tuple of levels, indexed by
    dimension; the generators that know every face of what they build skip
    the closure and hand their levels to the constructor.
    The vertex labels are one tuple, :attr:`labels`, indexed by vertex id.
    All query methods are read-only, and each counts or walks the stored
    faces; the closed forms of a generator expression are
    ``generators.face_counts``.
    """

    __slots__ = ("_levels", "_facets", "_labels")

    def __init__(
        self,
        levels: Iterable[Iterable[Face]],
        facets: Iterable[Face],
        labels: Sequence[str],
    ):
        """Internal: build from faces already closed downward.

        ``levels[k]`` holds every face of dimension k, for k = 0..d, and
        ``facets`` holds the maximal faces, in any order; nothing is
        checked.  The generators that know their faces call this directly,
        so each face is made once instead of once per face above it.
        """
        self._levels: tuple[frozenset[Face], ...] = tuple(map(frozenset, levels))
        self._facets: tuple[Face, ...] = tuple(sorted(sorted(facets), key=len))
        self._labels: tuple[str, ...] = tuple(labels)

    @classmethod
    def from_facets(cls, facets: Iterable[Sequence[str]]) -> SimplicialComplex:
        """Build the downward closure of label-valued facets.

        Labels are interned in first-appearance order, and each is checked
        once, when first seen.  Empty rows are skipped; dominated and
        duplicate facets are absorbed silently.  Raises InputError on a
        token that is not a nonempty str, on whitespace or a lone surrogate
        in a label, and on a repeated label within one facet.

        The interning makes what :meth:`from_indexed_facets` checks for,
        dense ids, increasing id tuples and unique labels, so the facets go
        to the closure unchecked.
        """
        labels: list[str] = []
        index: dict[str, int] = {}
        id_facets: list[Face] = []
        for row in facets:
            if not row:
                continue
            ids = []
            for tok in row:
                # only a label not seen before is checked; a token that is not
                # a str is never seen, so it is checked before any dict lookup
                vid = index.get(tok) if isinstance(tok, str) else None
                if vid is None:
                    vid = len(labels)
                    index[_check_label(tok)] = vid
                    labels.append(tok)
                ids.append(vid)
            if len(set(ids)) != len(ids):
                raise InputError(f"facet {list(row)!r} repeats a vertex")
            id_facets.append(tuple(sorted(ids)))
        return cls._closure(id_facets, labels)

    @classmethod
    def from_indexed_facets(
        cls, facets: Iterable[Face], labels: Sequence[str]
    ) -> SimplicialComplex:
        """Build from facets given as strictly increasing id tuples over
        range(len(labels)).

        Every vertex id must occur in some facet, so that the labels and the
        0-faces agree.  The input facets are checked before any face is
        made: raises InputError unless the nonempty facets use exactly the
        ids 0..n-1, then unless each facet is strictly increasing, then if
        two labels are equal.
        """
        facets = list(map(tuple, facets))
        if set(chain.from_iterable(facets)) != set(range(len(labels))):
            raise InputError(f"faces must use each vertex id in range({len(labels)}) and no other")
        if not all(starmap(lt, chain.from_iterable(map(pairwise, facets)))):
            raise InputError("every face must be a strictly increasing tuple of vertex ids")
        if len(set(labels)) != len(labels):
            raise InputError("vertex labels must be unique")
        return cls._closure(facets, labels)

    @classmethod
    def _closure(cls, facets: Iterable[Face], labels: Sequence[str]) -> SimplicialComplex:
        """The downward closure of facets, id tuples, with nothing checked.

        The facets must be strictly increasing and use every id in
        range(len(labels)), so level 0 is those ids.  Each level above it is
        made top down: level k is every (k+1)-subset of every face one level
        up, generated by ``combinations`` straight into a ``frozenset``, and
        the input faces it does not generate are exactly the facets of
        dimension k.  A 1-vertex facet is maximal when no edge holds it.
        """
        faces = set(filter(None, map(tuple, facets)))
        sizes = set(map(len, faces))
        if len(sizes) > 1:  # facets of mixed dimensions
            given = {k - 1: set(group) for k, group in groupby(sorted(faces, key=len), len)}
        else:
            given = {k - 1: faces for k in sizes}

        levels: list[frozenset[Face]] = []
        maximal: list[Face] = []
        above: frozenset[Face] = frozenset()
        for k in range(max(given, default=0), 0, -1):
            level = frozenset(chain.from_iterable(map(combinations, above, repeat(k + 1))))
            extra = given.get(k, set()) - level
            if extra:
                maximal += extra
                level = level.union(extra)
            levels.append(level)
            above = level
        if given:
            if 0 in given:
                maximal += given[0].difference(zip(chain.from_iterable(above)))
            levels.append(frozenset(zip(range(len(labels)))))
        levels.reverse()
        return cls(levels, maximal, labels)

    # -- elementary queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._levels) - 1

    @property
    def facets(self) -> tuple[Face, ...]:
        """Maximal faces, sorted by (dimension, lexicographic)."""
        return self._facets

    @property
    def labels(self) -> tuple[str, ...]:
        """Vertex labels, indexed by id."""
        return self._labels

    def is_empty(self) -> bool:
        return not self._levels

    def num_faces(self) -> int:
        return sum(map(len, self._levels))

    @property
    def by_size(self) -> tuple[int, ...]:
        """(1, f_0, ..., f_d): face counts by size, the empty face first."""
        return (1, *map(len, self._levels))

    def faces_of_dim(self, i: int) -> frozenset[Face]:
        """The faces of dimension i; empty when i < 0 or i > dim."""
        return self._levels[i] if 0 <= i < len(self._levels) else frozenset()

    def faces(self) -> Iterator[Face]:
        """All faces in (dimension ascending, lexicographic) order."""
        return chain.from_iterable(map(sorted, self._levels))

    def __contains__(self, face) -> bool:
        face = tuple(face)
        return face in self.faces_of_dim(len(face) - 1)

    def labels_of(self, face: Face) -> tuple[str, ...]:
        return tuple(map(self._labels.__getitem__, face))

    def face_from_labels(self, labels: Iterable[str]) -> Face:
        """Translate a label collection into a sorted id tuple (not verified)."""
        index = {lab: i for i, lab in enumerate(self._labels)}
        try:
            return tuple(sorted(index[lab] for lab in labels))
        except KeyError as exc:
            raise InputError(f"unknown vertex label {exc.args[0]!r}") from None

    # -- subcomplex operations ----------------------------------------------

    def _require_member(self, face) -> Face:
        face = tuple(face)
        if not face:
            raise InputError("the empty face is not accepted here")
        try:
            face = tuple(sorted(face))
            if face in self:
                return face
        except TypeError:  # ids that do not compare or hash, such as labels among ids
            pass
        if all(isinstance(v, int) and 0 <= v < len(self._labels) for v in face):
            shown = "{" + ",".join(self.labels_of(face)) + "}"
        else:
            shown = repr(face)
        raise InputError(f"{shown} is not a face of the complex")

    def _induced(self, id_facets: list[Face]) -> SimplicialComplex:
        # Dense relabeling that preserves the original id order, so labels
        # carry over deterministically, and the facets stay increasing over
        # every new id: the closure needs no checks.
        verts = sorted({v for f in id_facets for v in f})
        remap = {v: i for i, v in enumerate(verts)}
        labels = [self._labels[v] for v in verts]
        return self._closure([tuple(remap[v] for v in f) for f in id_facets], labels)

    def link(self, face) -> SimplicialComplex:
        """Link of a nonempty face: all faces disjoint from it whose union
        with it lies in the complex."""
        face = self._require_member(face)
        sigma = set(face)
        link_facets = [
            tuple(v for v in f if v not in sigma)
            for f in self._facets
            if sigma.issubset(f)
        ]
        return self._induced([f for f in link_facets if f])

    def star(self, face) -> SimplicialComplex:
        """Closed star of a face: the closure of all faces containing it."""
        face = self._require_member(face)
        sigma = set(face)
        return self._induced([f for f in self._facets if sigma.issubset(f)])

    # -- structural predicates ----------------------------------------------

    def is_pure(self) -> bool:
        """True when all facets share the top dimension (vacuous if empty).

        The facets are sorted by dimension, so the first has the least.
        """
        return not self._facets or len(self._facets[0]) == len(self._levels)

    def is_flag(self) -> CheckReport:
        """Check that every clique of the 1-skeleton is a face.

        Works level by level: once all cliques of size s are known to be
        faces, every clique of size s+1 extends a stored face, its prefix,
        by one adjacent vertex above the face's last one.  So each level
        first counts those extensions, one set intersection per face; when
        the count equals the number of faces of size s+1, every clique of
        that size is a face.  Only the first level whose count differs is
        walked in sorted order, and its first extension that is not a face
        is a minimal non-face clique, returned as the witness.  The top
        level ends the test: a clique that extends a top-dimensional face is
        never a face.
        """
        # Each edge (a, b) has a < b, so up[a] holds only the neighbours above a.
        up: list[set[int]] = [set() for _ in self._labels]
        for a, b in self.faces_of_dim(1):
            up[a].add(b)

        def above(f: Face) -> set[int]:
            return up[f[-1]].intersection(*map(up.__getitem__, f[:-1]))

        for k in range(1, len(self._levels)):
            level = self.faces_of_dim(k)
            larger = self.faces_of_dim(k + 1)
            if sum(map(len, map(above, level))) == len(larger):
                continue
            for f in sorted(level):
                for v in sorted(above(f)):
                    clique = f + (v,)
                    if clique not in larger:
                        return CheckReport(
                            holds=False,
                            witness=clique,
                            values={"witness_labels": self.labels_of(clique)},
                        )
        return CheckReport(holds=True)

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(dim={self.dim}, "
            f"vertices={len(self._labels)}, faces={self.num_faces()})"
        )
