"""Command-line front end.

Subcommands: info (invariants only), check (theorem audits), gen (write a
generator's facet file), batch (check every facet file in a directory).
Exit codes: 0 all selected checks hold, 1 a check failed, 2 input error.
An input is read as two objects: its counts, which answer the report header
and every check that reads only the dimension, the f-vector and the flag
witness, and its complex, for the checks that read faces.  A generator
expression's counts come in closed form (`generators.face_counts`), and it
is built only when a selected check reads faces; a facet file's complex
serves as both.  `build_document` hands each check the object it reads.
Generator expressions are parsed by `generators.parse_generator_expr`.
Every number in a JSON report is a decimal string or a reduced "p/q"
rational; nothing is ever emitted as floating point.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from pathlib import Path

from .checks import check_main_formula, ds_residuals, is_eulerian, proof_trace
from .errors import InputError, PreconditionError
from .facetio import (
    FORMATS,
    detect_format,
    display_path,
    escape_controls,
    load_complex,
    to_json,
    write_facets,
)
from .generators import build, face_counts, parse_generator_expr
from .invariants import euler_characteristic, f_vector, h_vector

SCHEMA_VERSION = 1

# -- exact serialization -------------------------------------------------------


def _decimal(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise InputError(
            f"a reported number has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _exact(K, value):
    """value with each int as a decimal string, each Fraction as "p/q" and each
    face tuple as its labels; lists and dicts element by element, and bools,
    None and strings as they are.  Any other type raises TypeError."""
    kind = type(value)
    if kind is int:
        return _decimal(value)
    if kind is list:
        if all(type(v) is int for v in value):  # an f- or h-vector
            return list(map(_decimal, value))
        return [_exact(K, v) for v in value]
    if kind is dict:
        return {k: _exact(K, v) for k, v in value.items()}
    if kind is tuple:
        return list(K.labels_of(value))
    if kind is str or kind is bool or value is None:
        return value
    if kind is Fraction:
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    raise TypeError(f"cannot report {kind.__name__} {value!r}")


def _section(K, rep, *keys):
    """(holds, the named fields of a CheckReport in this order, encoded by _exact)."""
    fields = {"holds": rep.holds, "witness": rep.witness, **rep.values}
    return rep.holds, {key: _exact(K, fields[key]) for key in keys}


def _eulerian(K, exhaustive):
    rep = is_eulerian(K, exhaustive=exhaustive)
    holds, section = _section(K, rep, "holds", "witness")
    if not holds:
        detail = {k: v for k, v in rep.values.items() if k != "complex_dim"}
        section["detail"] = _exact(K, detail)
    if rep.failures:
        section["failures"] = _exact(K, rep.failures)
    return holds, section


def _ds(K, exhaustive):
    rows, rep = ds_residuals(K)
    return rep.holds, _exact(
        K, [{"i": r.i, "lhs": r.lhs, "rhs": r.rhs, "holds": r.holds} for r in rows]
    )


# -- text report: marks, and the lines of each check's section -----------------


def _mark(ok: bool, color: bool, words=("ok", "FAIL")) -> str:
    word = words[0] if ok else words[1]
    if not color:
        return word
    return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"


def _vec(values) -> str:
    return "(" + ", ".join(values) + ")"


def _wit(witness) -> str:
    """A face as {a,b,c}, each label escaped by escape_controls and its
    commas shown as \\x2c, so that the labels read back apart; or a witness
    that is not a face as it is."""
    if isinstance(witness, list):
        shown = (escape_controls(label).replace(",", "\\x2c") for label in witness)
        return "{" + ",".join(shown) + "}"
    return str(witness)


def _flag_text(sec, color):
    line = f"flag: {'yes' if sec['holds'] else 'no'}"
    if sec["witness"]:
        line += f"   non-face clique: {_wit(sec['witness'])}"
    return [line]


def _eulerian_text(sec, color):
    line = f"eulerian: {_mark(sec['holds'], color)}"
    if not sec["holds"]:
        detail = sec.get("detail", {})
        line += f"   witness: {_wit(sec['witness'])}"
        if detail.get("reason") == "bad_link":
            line += f" (link chi {detail['chi_link']}, expected {detail['expected']})"
        elif detail.get("reason") == "not_pure":
            line += f" (facet of dimension {detail['facet_dim']})"
        elif detail.get("reason"):
            line += f" ({detail['reason']})"
    return [line, *map(_failure_text, sec.get("failures", []))]


def _failure_text(rec):
    extra = ", ".join(f"{k} {rec[k]}" for k in ("chi_link", "expected", "facet_dim") if k in rec)
    return f"    failure: {_wit(rec['face'])} [{rec['kind']}] {extra}".rstrip()


def _ds_text(rows, color):
    width = max(len("h_(d-i)-h_i"), *(len(r[k]) for r in rows for k in ("lhs", "rhs")))
    return [
        f"dehn-sommerville: {_mark(all(r['holds'] for r in rows), color)}",
        f"    i | {'h_(d-i)-h_i':>{width}} | {'expected':>{width}} | holds",
        *(f"    {r['i']} | {r['lhs']:>{width}} | {r['rhs']:>{width}} | {_mark(r['holds'], color)}"
          for r in rows),
    ]


def _formula_text(sec, color):
    line = (
        f"main-formula: {_mark(sec['holds'], color)}   "
        f"chi = {sec['lhs']}, half-power sum = {sec['rhs']}, "
        f"scaled {sec['scaled_lhs']} vs {sec['scaled_rhs']}"
    )
    if sec["parity_warning"]:
        line += "   [odd dimension: identity not expected to hold]"
    return [line]


def _proof_text(sec, color):
    return [
        f"proof-trace: {_mark(sec['holds'], color)}   "
        f"A = {sec['A']}, B = {sec['B']}, C = {sec['C']}, P = {sec['P']}"
    ]


# -- the check table -----------------------------------------------------------


# One row per check, in report order: selection name, document key,
# run(K, exhaustive) -> (holds, section), when it gates: "always", "even" (in
# even dimension) or "named" (it runs and gates only when named), what it
# reads: "faces", or only "counts", the queries of generators.FaceCounts:
# by_size, dim, is_empty, is_pure, is_flag and labels_of (build_document
# hands run the object it names), and text(section, color) -> the lines of
# its section in the text report.
# A check's precondition is its library function's PreconditionError, whose
# message is the reason it is skipped.  Runners look their check up in this
# module when they run, so a wrapper installed later still runs.
Check = namedtuple("Check", "name key run gates reads text")
CHECKS = (
    Check("flag", "is_flag", lambda K, _: _section(K, K.is_flag(), "holds", "witness"),
          "named", "counts", _flag_text),
    Check("eulerian", "is_eulerian", _eulerian, "always", "faces", _eulerian_text),
    Check("ds", "ds_rows", _ds, "always", "counts", _ds_text),
    Check("formula", "main_formula", lambda K, _: _section(K, check_main_formula(K),
          "lhs", "rhs", "scaled_lhs", "scaled_rhs", "holds", "parity_warning"), "even", "counts",
          _formula_text),
    Check("proof", "proof_trace",
          lambda K, _: _section(K, proof_trace(K), "A", "B", "C", "P", "holds"), "always",
          "counts", _proof_text),
)
THEOREM_CHECKS = tuple(c.name for c in CHECKS if c.gates != "named")
CHECK_NAMES = THEOREM_CHECKS + tuple(c.name for c in CHECKS if c.gates == "named")
CHOICES = CHECK_NAMES + ("all",)


def build_document(counts, faces, provenance, include, exhaustive=False, strict=()):
    """Assemble a ReportDocument dict and the verdict of each check that ran.

    counts (a generators.FaceCounts or a SimplicialComplex) answers the
    header and every row that reads "counts"; faces() gives the complex
    for the rows that read "faces", and is called only when one of them is
    in include.

    The rows of CHECKS named in include run in table order.  A verdict is
    True or False, or None where the row does not gate.  A check whose
    runner raises PreconditionError is recorded under "skipped" with its
    reason, or raises InputError when named in strict; checks named in
    strict always gate.  An f-vector too long to print fails before
    anything else is computed, encoded or built.
    """
    fv = f_vector(counts)
    # the largest entry first: one too long fails before str(), quadratic in
    # the digits, runs on the others
    _decimal(max(fv, default=0))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input": provenance,
        **_exact(counts, {
            "dim": counts.dim,
            "f_vector": fv,
            "h_vector": h_vector(counts),
            "chi": euler_characteristic(counts),
            "is_pure": counts.is_pure(),
        }),
    }
    rows = [c for c in CHECKS if c.name in include]
    K = faces() if any(c.reads == "faces" for c in rows) else None
    verdicts = {}
    skipped = {}
    for check in rows:
        try:
            holds, doc[check.key] = check.run(K if check.reads == "faces" else counts, exhaustive)
        except PreconditionError as e:
            if check.name in strict:
                raise InputError(f"check {check.name!r}: {e}") from None
            skipped[check.name] = str(e)
            continue
        gates = check.gates == "always" or (check.gates == "even" and counts.dim % 2 == 0)
        verdicts[check.name] = holds if gates or check.name in strict else None
    if skipped:
        doc["skipped"] = skipped
    return doc, verdicts


# -- human-readable rendering --------------------------------------------------


def _use_color(stream) -> bool:
    return (
        hasattr(stream, "isatty")
        and stream.isatty()
        and not os.environ.get("NO_COLOR")
    )


def render_text(doc, color=False) -> str:
    src = doc["input"]
    if src["kind"] == "generator":
        source = f"generator {src['expr']}"
    else:
        source = f"file {src['path']} ({src['format']})"
    lines = [
        f"input: {source}",
        f"dim: {doc['dim']}",
        f"f-vector: {_vec(doc['f_vector'])}",
        f"h-vector: {_vec(doc['h_vector'])}",
        f"chi: {doc['chi']}",
        f"pure: {'yes' if doc['is_pure'] else 'no'}",
    ]
    for check in CHECKS:
        if check.key in doc:
            lines += check.text(doc[check.key], color)
    lines += [f"{name}: skipped ({reason})" for name, reason in doc.get("skipped", {}).items()]
    if "checks_passed" in doc:
        lines.append(f"result: {_mark(doc['checks_passed'], color, ('PASS', 'FAIL'))}")
    return "\n".join(lines)


# -- commands -------------------------------------------------------------------


def _add_input_args(sub):
    sub.add_argument("--gen", metavar="EXPR", help="generator expression instead of a file")
    sub.add_argument(
        "--format", choices=FORMATS, help="force the input file format (default: by extension)"
    )


def _load_input(args):
    """(counts, faces, provenance) of the input, as build_document takes
    them: a generator expression's FaceCounts and a function that builds
    it, or a facet file's complex as both."""
    if args.gen and args.path:
        raise InputError("give either a facet file or --gen, not both")
    if args.gen:
        spec = parse_generator_expr(args.gen)
        prov = {"kind": "generator", "expr": spec.to_expr()}
        return face_counts(spec), lambda: build(spec), prov
    if not args.path:
        raise InputError("no input: give a facet file or --gen EXPR")
    return _load_file(args.path, args.format)


def _load_file(path, fmt=None):
    fmt = fmt or detect_format(path)
    K = load_complex(path, fmt)
    return K, lambda: K, {"kind": "file", "path": display_path(path), "format": fmt}


def _split_operands(args):
    """The PATH operand is the first check instead when --gen is given or it
    names a check."""
    if args.path is not None and (args.gen or args.path in CHOICES):
        args.which = [args.path, *args.which]
        args.path = None


def _emit(doc, as_json):
    if as_json:
        print(to_json(doc))
    else:
        print(render_text(doc, color=_use_color(sys.stdout)))


def _selection(args):
    """(selected, named): the checks args name, and with them the theorem
    checks under --all or "all" or when none is named.  Names are not
    validated; an unknown one stays in both sets."""
    names = set(args.which or [])
    named = names - {"all"}
    if args.all or "all" in names or not named:
        return named | set(THEOREM_CHECKS), named
    return named, named


def _auditor(args):
    """Validate the check selection in args; return a function that audits one
    input with it: (counts, faces, provenance) -> (doc with "checks_passed",
    verdicts)."""
    unknown = set(args.which or []) - set(CHOICES)
    if unknown:
        raise InputError(f"unknown check {sorted(unknown)[0]!r}; choose from {', '.join(CHOICES)}")
    selected, named = _selection(args)

    def audit(counts, faces, provenance):
        doc, verdicts = build_document(counts, faces, provenance, selected, args.exhaustive, named)
        doc["checks_passed"] = False not in verdicts.values()
        return doc, verdicts

    return audit


def cmd_info(args) -> int:
    doc, _ = build_document(*_load_input(args), {"flag"})
    _emit(doc, args.json)
    return 0


def cmd_check(args) -> int:
    _split_operands(args)
    loaded = _load_input(args)  # an input error comes before an unknown check's
    doc, _ = _auditor(args)(*loaded)
    _emit(doc, args.json)
    return 0 if doc["checks_passed"] else 1


def cmd_gen(args) -> int:
    spec = parse_generator_expr(args.expr)
    K = build(spec)
    write_facets(K, args.output, args.format)
    _note(
        f"wrote {len(K.facets)} facets ({K.num_faces()} faces, dim {K.dim}) "
        f"to {display_path(args.output)}"
    )
    return 0


def cmd_batch(args) -> int:
    dirpath = Path(args.dir)
    if not dirpath.is_dir():
        raise InputError(f"{display_path(args.dir)}: not a directory")
    suffixes = (".facets", ".txt", ".json")
    try:
        files = sorted(
            p for p in dirpath.iterdir() if p.is_file() and p.suffix.lower() in suffixes
        )
    except OSError as e:
        raise InputError(f"{display_path(args.dir)}: {e.strerror or e}") from None
    outdir = Path(args.out) if args.out else dirpath / "reports"
    audit = _auditor(args)

    rows = []
    for path in files:
        shown = display_path(path.name)
        report = outdir / (path.name + ".report.json")
        try:
            doc, verdicts = audit(*_load_file(path))
            outdir.mkdir(parents=True, exist_ok=True)
            report.write_text(to_json(doc) + "\n", encoding="utf-8")
        except InputError as e:
            rows.append((shown, "error", str(e)))
        except OSError as e:  # from the report's write: reading raises only InputError
            where = display_path(e.filename or outdir)
            rows.append((shown, "error", f"{where}: {e.strerror or e}"))
        else:
            failed = sorted(name for name, ok in verdicts.items() if ok is False)
            rows.append((shown, "FAIL" if failed else "pass", ",".join(failed)))

    width = max((len(r[0]) for r in rows), default=4)
    for name, status, detail in rows:
        line = f"{name:<{width}}  {status}"
        if detail:
            line += f"  {detail}"
        print(line)
    tally = Counter(status for _, status, _ in rows)
    print(f"{len(files)} file(s): {tally['pass']} passed, {tally['FAIL']} failed, "
          f"{tally['error']} error(s)")

    if files and tally["error"] == len(files):
        return 2
    return 1 if tally["FAIL"] or tally["error"] else 0


class _Parser(argparse.ArgumentParser):
    """A parser whose help and usage writes raise their OSError, which
    argparse's own _print_message swallows; its subparsers share the class."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eulerian-kit",
        description=(
            "Exact f-vector, h-vector, and Euler-characteristic computations for "
            "finite simplicial complexes, with Eulerian-manifold, Dehn-Sommerville, "
            "and even-dimension formula audits."
        ),
        epilog="exit codes: 0 all selected checks hold, 1 a check failed, 2 input error",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    all_help = f"run the theorem checks: {', '.join(THEOREM_CHECKS)}"
    which_help = f"checks to run: {', '.join(CHOICES)} (default: all)"

    p_info = sub.add_parser("info", help="invariants of a complex, no theorem checks")
    p_info.add_argument("path", nargs="?", metavar="PATH", help="facet file (plain or json)")
    _add_input_args(p_info)
    p_info.add_argument("--json", action="store_true", help="emit a JSON report document")

    p_check = sub.add_parser("check", help="run theorem checks and report exactly")
    p_check.add_argument("path", nargs="?", metavar="PATH", help="facet file (none with --gen)")
    p_check.add_argument("which", nargs="*", metavar="WHICH", help=which_help)
    _add_input_args(p_check)
    p_check.add_argument("--all", action="store_true", help=all_help)
    p_check.add_argument(
        "--exhaustive", action="store_true", help="collect every failure, not just the first"
    )
    p_check.add_argument("--json", action="store_true", help="emit a JSON report document")

    p_gen = sub.add_parser("gen", help="write a generator's facets to a file")
    p_gen.add_argument("expr", help="generator expression, e.g. 'suspension(torus7)'")
    p_gen.add_argument("-o", "--output", required=True, help="output path")
    p_gen.add_argument("--format", choices=FORMATS, default="plain", help="output format")

    p_batch = sub.add_parser("batch", help="check every facet file in a directory")
    p_batch.add_argument("dir", help="directory of .facets/.txt/.json files")
    p_batch.add_argument("which", nargs="*", metavar="WHICH", help=which_help)
    p_batch.add_argument("--all", action="store_true", help=all_help)
    p_batch.add_argument("--exhaustive", action="store_true", help="collect every failure")
    p_batch.add_argument(
        "-o", "--out", help="directory for per-file JSON reports (default: DIR/reports)"
    )
    # leftover words are reported under the usage of the command they came with
    for command in (p_info, p_check, p_gen, p_batch):
        command.set_defaults(usage_error=command.error)
    return parser


# built by the first main() call and reused by every later one in the process:
# parse_args returns a fresh Namespace each time, and help and usage read the
# terminal width when they are printed
_parser = None


def _silence(stream) -> None:
    """Point stream's file descriptor at the null device: output it still
    buffers would fail again at the interpreter's exit."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _note(line: str) -> None:
    """Print line on standard error, which is silenced if it is closed or full."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        _silence(sys.stderr)


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_arg_parser()
    try:
        try:
            args, extra = _parser.parse_known_args(argv)
        except SystemExit:
            sys.stdout.flush()  # help that a full standard output did not take fails here
            raise
        # argparse takes a command's positionals in one block, so check names given
        # after an option that follows the operands come back unparsed
        if extra and args.command in ("check", "batch") and not any(
            w.startswith("-") for w in extra
        ):
            args.which += extra
        elif extra:
            args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
        # cmd_<command> is looked up at each call, not bound into the cached
        # parser, so a wrapper installed on it later (perfbench's tracer) still runs
        status = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # so that a write error shows here, not at the interpreter's exit
    except InputError as e:
        _note(f"error: {e}")
        return 2
    except OSError as e:
        # Standard output is closed or full: every other OSError is an
        # InputError where it arises, and _note takes standard error's own.
        _silence(sys.stdout)
        if not isinstance(e, BrokenPipeError):
            _note(f"error: standard output: {e.strerror or e}")
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
