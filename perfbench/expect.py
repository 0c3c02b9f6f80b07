"""What each benchmark request must return, checked against the oracle.

Every expectation has the exit code it requires (`rc`) and a `problems`
method that lists every way a finished request's output differs from what
the closed-form algebra in `algebra` predicts.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import algebra as alg


def _q(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _check_all_ok(e) -> bool:
    even = alg.dim(e) % 2 == 0
    return (
        alg.eulerian_audit(e).holds
        and all(lhs == rhs for _, lhs, rhs in alg.ds_rows(e))
        and (not even or alg.main_formula(e)["holds"])
        and (not even or alg.proof_trace(e)["holds"])
    )


def _failed_checks(e) -> list[str]:
    """Check names a batch row lists for a file that fails `check --all`."""
    failed = []
    if not alg.eulerian_audit(e).holds:
        failed.append("eulerian")
    if any(lhs != rhs for _, lhs, rhs in alg.ds_rows(e)):
        failed.append("ds")
    formula = alg.main_formula(e)
    if not formula["holds"] and not formula["parity_warning"]:
        failed.append("formula")
    if alg.dim(e) % 2 == 0 and not alg.proof_trace(e)["holds"]:
        failed.append("proof")
    return sorted(failed)


def expected_document(e, provenance: dict, checks: tuple[str, ...]) -> dict:
    """The report document, except the is_eulerian section and the flag
    witness, whose labels depend on vertex order and are checked apart."""
    doc = {
        "schema_version": 1,
        "input": provenance,
        "dim": str(alg.dim(e)),
        "f_vector": [str(n) for n in alg.f_vector(e)],
        "h_vector": [str(n) for n in alg.h_vector(e)],
        "chi": str(alg.chi(e)),
        "is_pure": alg.is_pure(e),
    }
    even = alg.dim(e) % 2 == 0
    if "flag" in checks:
        doc["is_flag"] = {"holds": alg.is_flag(e)}
    if "ds" in checks:
        doc["ds_rows"] = [
            {"i": str(i), "lhs": str(lhs), "rhs": str(rhs), "holds": lhs == rhs}
            for i, lhs, rhs in alg.ds_rows(e)
        ]
    if "formula" in checks:
        m = alg.main_formula(e)
        doc["main_formula"] = {
            "lhs": str(m["lhs"]),
            "rhs": _q(m["rhs"]),
            "scaled_lhs": str(m["scaled_lhs"]),
            "scaled_rhs": str(m["scaled_rhs"]),
            "holds": m["holds"],
            "parity_warning": m["parity_warning"],
        }
    if "proof" in checks:
        if even:
            p = alg.proof_trace(e)
            doc["proof_trace"] = {k: (str(v) if k != "holds" else v) for k, v in p.items()}
        else:
            doc["skipped"] = {"proof": f"dimension {alg.dim(e)} is odd"}
    return doc


class Report:
    """`info` or `check` of one complex, with a JSON report on stdout.

    mode "info": invariants and flag; "all": every theorem check;
    "dfp": the explicit selection ds formula proof (even dimension only).
    any_vertex_order: the complex came from a file, so the first failing
    vertex may be any vertex that fails.
    """

    def __init__(self, e, provenance, mode, exhaustive=False, any_vertex_order=False):
        self.e = alg.guard(e)
        self.provenance = provenance
        self.mode = mode
        self.exhaustive = exhaustive
        self.any_vertex_order = any_vertex_order
        if mode == "info":
            self.checks, self.rc = ("flag",), 0
        elif mode == "all":
            self.checks = ("eulerian", "ds", "formula", "proof")
            self.rc = 0 if _check_all_ok(e) else 1
        elif mode == "dfp":
            if alg.dim(e) % 2:
                raise ValueError("explicit proof on an odd dimension is an input error")
            self.checks = ("ds", "formula", "proof")
            ok = all(lhs == rhs for _, lhs, rhs in alg.ds_rows(e))
            ok = ok and alg.main_formula(e)["holds"] and alg.proof_trace(e)["holds"]
            self.rc = 0 if ok else 1
        else:
            raise ValueError(f"unknown mode {mode!r}")

    def problems(self, rc, out, err) -> list[str]:
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"stdout is not a JSON report: {exc}"]
        return self.document_problems(doc)

    def document_problems(self, doc) -> list[str]:
        want = expected_document(self.e, self.provenance, self.checks)
        if self.mode != "info":
            want["checks_passed"] = self.rc == 0
        got = dict(doc)
        euler = got.pop("is_eulerian", None)
        flag_witness = None
        if isinstance(got.get("is_flag"), dict):
            flag = dict(got["is_flag"])
            flag_witness = flag.pop("witness", "absent")
            got["is_flag"] = flag
        out = [
            f"{k}: got {got.get(k)!r}, want {want.get(k)!r}"
            for k in sorted(set(got) | set(want))
            if got.get(k) != want.get(k)
        ]
        if "flag" in self.checks:
            holds = want["is_flag"]["holds"]
            if holds and flag_witness is not None:
                out.append(f"flag witness {flag_witness!r} on a flag complex")
            if not holds and not (isinstance(flag_witness, list) and len(flag_witness) >= 3):
                out.append(f"flag witness {flag_witness!r} is not a clique of 3 or more")
        if "eulerian" in self.checks:
            out += self._eulerian_problems(euler)
        elif euler is not None:
            out.append("is_eulerian reported but not selected")
        return out

    def _eulerian_problems(self, sec) -> list[str]:
        audit = alg.eulerian_audit(self.e)
        if not isinstance(sec, dict) or sec.get("holds") is not audit.holds:
            return [f"is_eulerian: got {sec!r}, want holds={audit.holds}"]
        if audit.holds:
            return [] if set(sec) == {"holds", "witness"} and sec["witness"] is None else [
                f"is_eulerian: unexpected content {sec!r}"
            ]
        out = []
        witness = sec.get("witness")
        if not (isinstance(witness, list) and len(witness) == audit.witness_size):
            out.append(f"eulerian witness {witness!r}: want {audit.witness_size} vertices")
        detail = sec.get("detail", {})
        if audit.reason == "not_pure":
            want = {"reason": "not_pure", "facet_dim": str(audit.facet_dim)}
            if detail != want:
                out.append(f"eulerian detail {detail!r}, want {want!r}")
        else:
            chis = audit.bad_link_chis if self.any_vertex_order else audit.bad_link_chis[:1]
            ok = (
                set(detail) == {"reason", "chi_link", "expected"}
                and detail["reason"] == "bad_link"
                and detail["expected"] == str(audit.expected)
                and detail["chi_link"] in {str(c) for c in chis}
            )
            if not ok:
                out.append(
                    f"eulerian detail {detail!r}: want link chi in {chis}, "
                    f"expected {audit.expected}"
                )
        failures = sec.get("failures")
        if self.exhaustive and (not isinstance(failures, list) or len(failures) != audit.failures):
            got = len(failures) if isinstance(failures, list) else failures
            out.append(f"exhaustive failures: got {got}, want {audit.failures}")
        if not self.exhaustive and failures is not None:
            out.append("failures listed without --exhaustive")
        return out


def read_rows(path: Path) -> list[list[str]]:
    """Facet rows of a file `gen` wrote, in either format."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)["facets"]
    return [line.split() for line in text.splitlines() if line.strip()]


def file_provenance(path) -> dict:
    fmt = "json" if Path(path).suffix == ".json" else "plain"
    return {"kind": "file", "path": str(path), "format": fmt}


class GenWrite:
    """`gen EXPR -o PATH`: a one-line summary on stderr and the facet file."""

    rc = 0

    def __init__(self, e, path: str):
        self.e = alg.guard(e)
        self.path = path

    def problems(self, rc, out, err) -> list[str]:
        e = self.e
        want = (
            f"wrote {alg.num_facets(e)} facets ({alg.num_faces(e)} faces, "
            f"dim {alg.dim(e)}) to {self.path}\n"
        )
        found = []
        if err != want or out:
            found.append(f"gen output {out!r} {err!r}, want stderr {want!r}")
        try:
            rows = read_rows(Path(self.path))
        except (OSError, ValueError, KeyError) as exc:
            return found + [f"{self.path}: unreadable ({exc})"]
        sizes = {}
        for row in rows:
            sizes[len(row)] = sizes.get(len(row), 0) + 1
        if tuple(sorted(sizes.items())) != alg.facet_sizes(e):
            found.append(f"{self.path}: facet sizes {sorted(sizes.items())}")
        return found


class Rejected:
    """Hostile input: exit 2 and one line on stderr, nothing on stdout.

    known_error names the exception of a known defect, such as the
    RecursionError that deep nesting raises: a request that raises it has
    failed, but has not given a wrong answer.
    """

    rc = 2

    def __init__(self, known_error: str | None = None):
        self.known_error = known_error

    def problems(self, rc, out, err) -> list[str]:
        lines = err.splitlines()
        if out or len(lines) != 1 or not lines[0].startswith("error: "):
            return [f"want one 'error: ' line, got stdout {out[:80]!r} stderr {err[:200]!r}"]
        return []


class Batch:
    """`batch DIR --all`: one row per file, a summary line, and a report file
    for every file that loaded.  entries maps file name to its expression,
    or to None for a file that must be reported as an error."""

    def __init__(self, directory: str, entries: dict):
        self.directory = directory
        self.entries = dict(sorted(entries.items()))
        self.status = {
            name: "error" if e is None else ("pass" if _check_all_ok(e) else "FAIL")
            for name, e in self.entries.items()
        }
        n_pass, n_fail, n_error = (
            sum(1 for s in self.status.values() if s == k) for k in ("pass", "FAIL", "error")
        )
        self.summary = (
            f"{len(entries)} file(s): {n_pass} passed, {n_fail} failed, {n_error} error(s)"
        )
        self.rc = 2 if n_error == len(entries) else (1 if n_fail or n_error else 0)

    def problems(self, rc, out, err) -> list[str]:
        lines = out.splitlines()
        found = []
        if len(lines) != len(self.entries) + 1 or lines[-1] != self.summary:
            return [f"batch output {out[-300:]!r}, want rows and {self.summary!r}"]
        for line, (name, e) in zip(lines, self.entries.items()):
            fields = line.split(None, 2)
            if fields[:2] != [name, self.status[name]]:
                found.append(f"batch row {line!r}: want {name} {self.status[name]}")
            elif self.status[name] == "FAIL" and fields[2:] != [",".join(_failed_checks(e))]:
                found.append(f"batch row {line!r}: want failing {_failed_checks(e)}")
            if e is None:
                continue
            path = Path(self.directory, name)
            prov = file_provenance(path)
            report = Path(self.directory, "reports", name + ".report.json")
            try:
                doc = json.loads(report.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                found.append(f"{report}: {exc}")
                continue
            found += Report(e, prov, "all", any_vertex_order=True).document_problems(doc)
        return found
