"""Command-line interface.

Subcommands: build, analyze, minvec, verify, table, scan-D, graph, craig.
Output is JSON by default or CSV with --format csv.  _render_json is the
one JSON renderer and the one home of the decimal-string rule: it writes
every integer as a decimal string as it renders, in one pass, with no copy
of the result.  Each _cmd_* function returns (exit code, JSON object, CSV
tables as (header, rows) pairs); main is the one place that renders a
result, so no command chooses a format.  graph alone returns a
fourth item, its adjacency matrix text, which main writes first, and no CSV
tables: it gets JSON whatever the format.  Exit codes: 0 success /
agreement, 1 verified mismatch, 2 usage error, 3 construction error; main
maps SpecError to 2 and ConstructionError to 3, and argparse's own usage
errors are raised as SpecError, so they too exit 2 with one error: line.
Parallelism for row-based commands comes from --jobs or the LATLAB_JOBS
environment variable: --jobs N runs the rows on this process and at most
N - 1 children it forks (a POSIX fork is needed), and output is
byte-identical for every N.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii

from . import families, lattice, perfection, tables
from .errors import ConstructionError, SpecError
from .intlinalg import format_matrix

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3


def _default_jobs() -> int:
    text = os.environ.get("LATLAB_JOBS", "1")
    if not text.isdecimal() or int(text) < 1:
        raise SpecError(f"LATLAB_JOBS must be an integer of at least 1, not {text!r}")
    return int(text)


@dataclass(frozen=True)
class RunConfig:
    """The run options; an option left off the command line takes its
    default here."""

    format: str = "json"
    jobs: int = field(default_factory=_default_jobs)
    norm_cap: int = 12


def _render_json(obj, pad: str = "\n") -> str:
    """obj as indented JSON (two spaces, separators ',' and ': '), with every
    int that is not a bool, dict keys included, written as its decimal
    string and every other iterable that is not a dict written as a list:
    the one home of the decimal-string rule.  A float or any other leaf
    that is not iterable raises TypeError.  Keys keep their order."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return encode_basestring_ascii(str(obj))
    inner = pad + "  "
    if isinstance(obj, dict):
        # an int key becomes its decimal string, so the two are one key,
        # at the first one's place with the last one's value
        items = {(str(k) if isinstance(k, int) and not isinstance(k, bool) else k):
                 _render_json(v, inner) for k, v in obj.items()}
        if not items:
            return "{}"
        body = ("," + inner).join(
            f"{encode_basestring_ascii(k if isinstance(k, str) else _render_json(k))}: {v}"
            for k, v in items.items())
        return "{" + inner + body + pad + "}"
    items = obj if isinstance(obj, (list, tuple)) else list(obj)
    if not items:
        return "[]"
    if {*map(type, items)} == {int}:  # plain ints only, so no bool
        body = ('",' + inner + '"').join(map(str, items))
        return "[" + inner + '"' + body + '"' + pad + "]"
    return "[" + inner + ("," + inner).join(_render_json(x, inner) for x in items) + pad + "]"


def _emit_csv(header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    print(buf.getvalue(), end="")


def _cmd_build(args, cfg: RunConfig):
    spec = families.parse_family(args.spec)
    lat = families.build_family(spec)
    cs = lat.constraints
    obj = {"family": str(spec), "labels": cs.labels,
           "rows": [{"weights": w, "modulus": m} for w, m in cs.rows],
           "rank": lat.rank, "det": lat.det, "basis": lat.basis, "gram": lat.gram}
    rows = [("rank", lat.rank), ("det", lat.det)] + [("basis", *row) for row in lat.basis]
    return EXIT_OK, obj, [(("field", "values"), rows)]


def _cmd_analyze(args, cfg: RunConfig):
    spec = families.parse_family(args.spec)
    report = perfection.perfection_report(families.build_family(spec), cfg.norm_cap)
    obj = {"family": str(spec), "params": spec.params_json(), "d": report.d,
           "det": report.det, "min": report.min_norm, "mp": report.mp,
           "sym_rank": report.sym_rank, "pd": report.pd}
    row = (str(spec), report.d, report.det, report.min_norm, report.mp, report.sym_rank, report.pd)
    return EXIT_OK, obj, [(("family", "d", "det", "min", "mp", "sym_rank", "pd"), [row])]


def _cmd_minvec(args, cfg: RunConfig):
    lat = families.build_family(families.parse_family(args.spec))
    mvs = lattice.vectors_of_norm(lat, args.norm)
    obj = {"norm": mvs.norm, "count": mvs.count, "vectors": mvs.vectors}
    return EXIT_OK, obj, [(("norm", "count"), [(mvs.norm, mvs.count)]),
                          (("vector",), mvs.vectors)]


def _cmd_verify(args, cfg: RunConfig):
    report = families.verify_formula(families.parse_family(args.spec))
    obj = {**vars(report), "agree": report.agree}
    header = ("family", "quantity", "formula_value", "enumerated_value", "agree")
    row = (report.family, report.quantity, report.formula_value, report.enumerated_value,
           str(report.agree).lower())
    return EXIT_OK if report.agree else EXIT_MISMATCH, obj, [(header, [row])]


def _cmd_table(args, cfg: RunConfig):
    report = tables.run_table(args.table_id, jobs=cfg.jobs)
    obj = {"table": report.table_id, "header": report.header, "rows": report.rows,
           "diffs": [vars(d) for d in report.diffs], "ok": report.ok}
    diffs = [(d.row, d.field, d.expected, d.got) for d in report.diffs]
    return (EXIT_OK if report.ok else EXIT_MISMATCH, obj,
            [(report.header, report.rows), (("row", "field", "expected", "got"), diffs)])


def _cmd_scan_d(args, cfg: RunConfig):
    excl = families.parse_excl("Ld", args.excl) if args.excl else ()
    result = perfection.scan_D(excl, args.dmax, jobs=cfg.jobs)
    D = "unresolved" if result.D is None else result.D
    obj = {"excl": result.excl, "d_max": result.d_max, "tail_bound": result.bound,
           "perfect_ds": result.perfect_ds, "failures": result.failures, "D": D}
    row = (args.excl or "-", result.d_max, D, " ".join(map(str, result.perfect_ds)))
    return EXIT_OK, obj, [(("excl", "d_max", "D", "perfect_ds"), [row])]


def _cmd_graph(args, cfg: RunConfig):
    spec = families.parse_family(args.spec)
    lat = families.build_family(spec)
    if args.norm is not None:
        mvs = lattice.vectors_of_norm(lat, args.norm)
    else:
        mvs = lattice.minimum(lat, cfg.norm_cap)[1]
    base = None
    if args.base_vector is not None:
        base = families.parse_ints(args.base_vector, "base vector")
        if len(base) != lat.ambient_dim:
            raise SpecError("base vector length does not match ambient dimension")
        if not any(base):
            raise SpecError("base vector must be nonzero")
    product = args.product if args.product is not None else (-1 if base else 0)
    graph = perfection.minvec_graph(mvs, product, base_vector=base)
    info = {"vertices": graph.order, "degrees": dict(sorted(Counter(graph.degrees()).items())),
            "spectrum": graph.spectrum(), "srg": graph.srg_parameters()}
    return EXIT_OK, info, None, format_matrix(graph.adjacency)


def _cmd_craig(args, cfg: RunConfig):
    q, k = args.q, args.k
    if args.method == "formula":
        value = families.craig_count_closed(q, k)
    elif args.method == "histogram":
        value = families.craig_pair_count(q, k)
    else:
        spec = families.FamilySpec("Craig", q=q, k=k)
        value = lattice.vectors_of_norm(families.build_family(spec),
                                        families.formula_norm(spec)).count
    obj = {"q": q, "k": k, "method": args.method, "value": value}
    return EXIT_OK, obj, [(("q", "k", "method", "value"), [(q, k, args.method, value)])]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error reaches main's one handler, which gives it exit 2
        raise SpecError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: it keeps the
    _cmd_* functions it was built with, so patching one later does not
    reach main.  Parsing reads no environment; RunConfig reads LATLAB_JOBS
    on every call."""
    # the run options are accepted both before and after the subcommand;
    # SUPPRESS keeps a post-subcommand absence from clobbering a value parsed
    # from the front of the line, and main fills in the defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="parallelism for row-based commands (default: LATLAB_JOBS or 1)")
    common.add_argument("--norm-cap", dest="norm_cap", type=int, default=argparse.SUPPRESS,
                        help="search cap for minimum-norm hunts")

    parser = _Parser(
        prog="latlab",
        description="Build and analyze integral lattices cut out by congruence constraints.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common], help="construct a lattice and print it")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("analyze", parents=[common], help="perfection report of a lattice")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("minvec", parents=[common], help="all vectors of one squared norm")
    p.add_argument("spec")
    p.add_argument("--norm", type=int, required=True)
    p.set_defaults(func=_cmd_minvec)

    p = sub.add_parser("verify", parents=[common],
                       help="closed-form count versus enumeration")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", parents=[common],
                       help="recompute a reference table and diff it")
    p.add_argument("table_id", metavar="ID", help=", ".join(tables.TABLE_IDS))
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("scan-D", parents=[common],
                       help="perfection threshold scan for excluded indices")
    p.add_argument("--excl", default="", help="comma separated exclusions (may be empty)")
    p.add_argument("--dmax", type=int, default=None)
    p.set_defaults(func=_cmd_scan_d)

    p = sub.add_parser("graph", parents=[common],
                       help="scalar-product graph of the shortest vectors")
    p.add_argument("spec")
    p.add_argument("--base-vector", default=None,
                   help="comma separated ambient vector fixing pair representatives")
    p.add_argument("--product", type=int, default=None,
                   help="scalar product defining edges (default -1 with a base, else 0)")
    p.add_argument("--norm", type=int, default=None)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("craig", parents=[common],
                       help="shortest-vector pair count of a power-sum kernel")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("formula", "histogram", "enumerate"),
                   default="formula")
    p.set_defaults(func=_cmd_craig)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # an explicit --jobs keeps LATLAB_JOBS from being read at all
        cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                           if hasattr(args, f.name)})
        for flag, value in (("--jobs", cfg.jobs), ("--norm-cap", cfg.norm_cap),
                            ("--norm", getattr(args, "norm", None)),
                            ("--k", getattr(args, "k", None)),
                            ("--dmax", getattr(args, "dmax", None))):
            if value is not None and value < 1:
                raise SpecError(f"{flag} must be at least 1")
        code, obj, csv_tables, *text = args.func(args, cfg)
    except (SpecError, ConstructionError) as exc:
        # bad input is signalled by these two types alone; any other
        # exception is a bug and surfaces as a traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, SpecError) else EXIT_CONSTRUCTION
    # the one place a command's result reaches stdout
    print(*text, sep="", end="")
    if cfg.format == "csv" and csv_tables is not None:
        for header, rows in csv_tables:
            _emit_csv(header, rows)
    else:
        print(_render_json(obj))
    return code


if __name__ == "__main__":
    sys.exit(main())
