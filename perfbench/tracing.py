"""Layer spans for the traced run, recorded from outside the program.

`Tracer.installed()` wraps the library's public functions at run time and
restores them on exit.  `cli` imports its helpers by name, so those `cli.*`
names are patched; the methods of SimplicialComplex are patched on the
class.  Every call records a span [name, start, end, parent, request] in
memory, and a few counters; `metrics` turns them into the per-layer
metrics.  Times are self times: a span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

LAYERS = ("cli", "facetio", "generators", "complexes", "invariants", "checks")
INVARIANTS = (
    "f_vector",
    "f_polynomial",
    "h_vector",
    "euler_characteristic",
    "f_poly_eval",
    "h_poly_eval",
)

# per-layer metric -> the span name whose self time it is
SELF_TIMES = {
    "complexes.link_s": "complexes.link",
    "checks.eulerian_s": "checks.eulerian",
    "complexes.closure_s": "complexes.closure",
    "generators.build_s": "generators.build",
    "complexes.flag_s": "complexes.flag",
    "facetio.read_s": "facetio.read",
    "facetio.write_s": "facetio.write",
    "complexes.intern_s": "complexes.intern",
    "cli.argparse_s": "cli.argparse",
    "cli.parse_expr_s": "cli.parse_expr",
    "cli.document_s": "cli.document",
    "cli.emit_s": "cli.emit",
    "cli.batch_self_s": "cli.batch",
    "checks.algebra_s": "checks.algebra",
}
# per-layer metric -> the counter it reports: calls of a span, or a tally
COUNTS = {
    "complexes.link_calls": "complexes.link",
    "complexes.closure_calls": "complexes.closure",
    "complexes.faces_built": "faces_built",
    "generators.build_calls": "generators.build",
    "complexes.flag_calls": "complexes.flag",
    "facetio.read_bytes": "read_bytes",
    "facetio.write_bytes": "write_bytes",
}
UNITS = {"_s": "s", "_calls": "count", "_bytes": "bytes", "_built": "count"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = list(SELF_TIMES) + list(COUNTS)
    out = [(n, next(u for suffix, u in UNITS.items() if n.endswith(suffix))) for n in names]
    out += [
        ("checks.links_per_face", "ratio"),
        ("invariants.s", "s"),
        ("invariants.calls", "count"),
        ("trace.run_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.uncovered_share", "share"),
    ]
    out += [(f"{layer}.share", "share") for layer in LAYERS]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []

    def reset(self):
        self.spans, self.counts, self._stack = [], Counter(), []

    def _wrap(self, name, fn, after=None):
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(self.spans))
            self.spans.append(span)
            self.counts[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters -------------------------------------------------------------

    def _faces_built(self, args, K):
        self.counts["faces_built"] += K.num_faces()

    def _eulerian_link(self, args, result):
        stack = self._stack
        if stack and self.spans[stack[-1]][0] == "checks.eulerian":
            self.counts["eulerian_links"] += 1

    def _eulerian_faces(self, args, result):
        self.counts["eulerian_faces"] += args[0].num_faces()

    def _file_bytes(self, key, index):
        def count(args, result):
            self.counts[key] += os.path.getsize(args[index])

        return count

    def _wrap_parser(self, args, parser):
        parser.parse_args = self._wrap("cli.argparse", parser.parse_args)

    # -- installation -----------------------------------------------------------

    def _targets(self):
        from eulerian_kit import checks, cli, complexes, facetio, generators, invariants

        yield cli, "main", "cli.main", None
        yield cli, "build_arg_parser", "cli.argparse", self._wrap_parser
        for name in ("cmd_info", "cmd_check", "cmd_gen"):
            yield cli, name, "cli.command", None
        yield cli, "cmd_batch", "cli.batch", None
        yield cli, "parse_generator_expr", "cli.parse_expr", None
        yield cli, "build_document", "cli.document", None
        yield cli, "_emit", "cli.emit", None
        yield cli, "is_eulerian", "checks.eulerian", self._eulerian_faces
        for name in ("ds_residuals", "check_main_formula", "proof_trace"):
            yield cli, name, "checks.algebra", None
        yield cli, "write_facets", "facetio.write", self._file_bytes("write_bytes", 1)
        yield facetio, "read_facets", "facetio.read", self._file_bytes("read_bytes", 0)
        yield cli, "build", "generators.build", None
        yield generators, "build", "generators.build", None
        for module in (invariants, checks, cli, generators):
            for name in INVARIANTS:
                if hasattr(module, name):
                    yield module, name, f"invariants.{name}", None
        cls = complexes.SimplicialComplex
        yield cls, "from_facets", "complexes.intern", None
        yield cls, "from_indexed_facets", "complexes.closure", self._faces_built
        yield cls, "link", "complexes.link", self._eulerian_link
        yield cls, "is_flag", "complexes.flag", None

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, after in self._targets():
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, after)))
                else:
                    setattr(owner, attr, self._wrap(name, raw, after))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return dict(out)

    def covered(self) -> float:
        """Wall time under some span: the sum of the root spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass that took `wall` seconds.
        trace.run_s and trace.overhead_s are left to the caller, who has the
        untraced time."""
        selfs = self.self_times()
        out = {metric: selfs.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        out.update({metric: self.counts[key] for metric, key in COUNTS.items()})
        faces = self.counts["eulerian_faces"]
        out["checks.links_per_face"] = self.counts["eulerian_links"] / faces if faces else 0.0
        out["invariants.s"] = sum(t for n, t in selfs.items() if n.startswith("invariants."))
        out["invariants.calls"] = sum(
            c for n, c in self.counts.items() if n.startswith("invariants.")
        )
        out["trace.uncovered_share"] = 1.0 - self.covered() / wall
        for layer in LAYERS:
            share = sum(t for n, t in selfs.items() if n.split(".")[0] == layer)
            out[f"{layer}.share"] = share / wall
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: request, name, start, end, parent."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([request, name, start, end, parent]) + "\n")
