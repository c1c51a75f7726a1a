"""Batch command line front end.

Subcommands: ``table`` (dimension/coset rows per parabolic pair),
``components`` (component inventories), ``verify`` (exact verification
reports, exit 1 on any failure).  Subsets on the command line are 0-based;
rendered names s1, s2, ... are 1-based.  Output is deterministic:
identical configs produce identical bytes, written pair by pair.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter
from collections.abc import Iterator
from contextlib import nullcontext, suppress
from itertools import chain

from .errors import (
    InvalidSubset,
    NotFiniteType,
    NotGeneralizedCartan,
    OrderCapExceeded,
    ParseError,
)
from .rootsys import (
    DEFAULT_ORDER_CAP,
    _split_type_name,
    cartan_from_name,
    enumerate_weyl,
    root_system,
    validate_cartan,
)
from . import parabolic, varieties
# table rows read varieties.pair_context; these names stay importable from
# cli because perfbench's tracer test checks that they are rebound
from .algebra import anti_invariant_basis, invariant_basis  # noqa: F401

SCHEMA = "steinberg/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INVALID_SUBSET = 3

TABLE_COLUMNS = [
    "type", "J", "K", "n", "d", "l", "f",
    "dimX", "dimY", "cosets", "inv_dim", "anti_dim", "passed",
]
COMPONENT_COLUMNS = ["type", "J", "K", "label", "dim_Zw", "dim_Yw", "eta_dim_preserved"]
VERIFY_COLUMNS = ["type", "claim", "expected", "computed", "passed"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinberg",
        description="Weyl group double-coset and group-algebra dimension tables "
        "(subset indices are 0-based).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("table", "dimension and coset-count rows per parabolic pair"),
        ("components", "component inventory per parabolic pair"),
        ("verify", "exact verification reports; exit 1 on failure"),
    ]:
        p = sub.add_parser(name, help=helptext)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--type", help="Cartan type name, e.g. A2, B3, D4")
        src.add_argument("--cartan", help="path to a JSON file with a Cartan matrix")
        p.add_argument("--p", default=None, metavar="CSV",
                       help="0-based simple indices of J, e.g. 0,2 (empty = no indices)")
        p.add_argument("--q", default=None, metavar="CSV",
                       help="0-based simple indices of K")
        p.add_argument("--all-pairs", action="store_true",
                       help="sweep every (J,K) pair of simple subsets")
        p.add_argument("--format", default="markdown",
                       choices=["markdown", "json", "csv"])
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
        if name == "verify":
            p.add_argument("--hotta", action="store_true",
                           help="check the sign-eigenspace/descent counts per simple reflection")
    return parser


def _load_group(args):
    if isinstance(args.order_cap, list):  # argparse reads --order-cap=-- as []
        raise ParseError("argument --order-cap: invalid int value: '--'")
    if args.type is not None:
        rank = _split_type_name(args.type)[1]
    else:
        def read_int(text: str) -> int:
            try:
                return int(text)
            except ValueError:  # more digits than int() converts; the JSON is valid
                raise ParseError(
                    f"an integer in {args.cartan} has {len(text.lstrip('-'))} digits, "
                    f"more than the {sys.get_int_max_str_digits()} that can be read"
                ) from None

        try:
            with open(args.cartan, "r", encoding="utf-8") as handle:
                payload = json.load(handle, parse_int=read_int)
        except OSError as exc:
            raise ParseError(f"cannot read {args.cartan}: {exc}") from exc
        except ParseError:
            raise
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ParseError(f"invalid JSON in {args.cartan}: {exc}") from exc
        except RecursionError as exc:
            raise ParseError(f"JSON in {args.cartan} is nested too deeply") from exc
        if not isinstance(payload, dict) or "matrix" not in payload:
            raise ParseError(f"{args.cartan} must contain a 'matrix' key")
        rank = len(payload["matrix"]) if isinstance(payload["matrix"], list) else 0
    # a Weyl group of rank r has order at least 2^r, which A1^r attains, so this
    # refuses nothing the cap admits, before any work of order rank^2 or rank^3
    if rank >= args.order_cap.bit_length():
        raise OrderCapExceeded(f"rank {rank} gives a group order of at least 2^rank, "
                               f"above cap {args.order_cap}")
    datum = (cartan_from_name(args.type) if args.type is not None
             else validate_cartan(payload["matrix"], payload.get("labels")))
    roots = root_system(datum)
    group = enumerate_weyl(roots, order_cap=args.order_cap)
    return datum, roots, group


def _parse_subset(text: str | list | None, rank: int) -> tuple[int, ...]:
    if isinstance(text, list):  # argparse reads --p=-- as [], dropping the "--"
        text = "--"
    if text is None or text.strip() == "":
        return ()
    try:
        indices = [int(p) for p in text.split(",")]  # int() strips whitespace
    except ValueError:
        raise InvalidSubset(f"subset {text!r} is not a comma-separated integer list")
    return parabolic.normalize_subset(rank, indices)


def _resolve_pairs(args, rank: int):
    """The (J, K) pairs to run, and whether verify adds the Hotta checks."""
    hotta = getattr(args, "hotta", False)
    # binary-counting order: {}, {0}, {1}, {0,1}, {2}, ...
    subsets = [tuple(i for i in range(rank) if mask >> i & 1) for mask in range(1 << rank)]
    every = [(J, K) for J in subsets for K in subsets]
    if args.all_pairs:
        return every, hotta
    if args.p is not None or args.q is not None:
        return [(_parse_subset(args.p, rank), _parse_subset(args.q, rank))], hotta
    if args.command != "verify":
        return [((), ())], False  # the Borel case
    return ([] if hotta else every), True  # verify with no selection sweeps everything


def _cell(value) -> str:
    """A csv or markdown cell: true/false, a subset as 0,2 or -, else str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(i) for i in value) if value else "-"
    return str(value)


def _json_item(value) -> str:
    """json.dumps(value, indent=2) at the depth of an item of the document's list."""
    return "    " + json.dumps(value, indent=2).replace("\n", "\n    ")


def _row(fmt, columns, cells) -> str:
    """One row without its line end: a JSON item, or a csv or markdown line."""
    if fmt == "json":
        return _json_item(dict(zip(columns, cells)))
    cells = [_cell(c) for c in cells]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(cells)
        return buf.getvalue()
    return "| " + " | ".join(cells) + " |"


_ITEMS = "\x00items"  # the rows of a JSON envelope; no cell can hold it
_SLOT = f"\n    {json.dumps(_ITEMS)}\n  "  # its list [_ITEMS], as json.dumps renders it


def _document(fmt, envelope, columns, batches) -> Iterator[str]:
    """The document in pieces: its opening, one piece per pair, its closing.

    ``batches`` yields each pair's rows and is advanced only once the piece
    before was written, so one pair's rows are alive at a time.  JSON is
    json.dumps(envelope, indent=2) with the rows in place of [_ITEMS] (no row
    leaves []), dumped again for the closing, so counts the pieces update show
    there.  Csv and markdown open with a header of ``columns``, if given.
    """
    if fmt != "json":
        if columns:
            header = [columns] if fmt == "csv" else [columns, ["---"] * len(columns)]
            yield "".join(_row(fmt, columns, cells) + "\n" for cells in header)
        for rows in batches:
            yield "".join(row + "\n" for row in rows)
        return
    yield json.dumps(envelope, indent=2).split(_SLOT)[0]
    lead = "\n"
    for rows in batches:
        yield lead + ",\n".join(rows)
        lead = ",\n"
    closing = json.dumps(envelope, indent=2).split(_SLOT)[1]
    yield ("\n  " if lead == ",\n" else "") + closing + "\n"


def _table_doc(fmt, tag, roots, group, pairs) -> Iterator[str]:
    profile = varieties.geometry_profile(roots)

    def batches():
        for J, K in pairs:
            pair = varieties.pair_profile(roots, J, K)
            ctx = varieties.pair_context(group, J, K)
            cosets = len(ctx.reps)
            inv = ctx.invariant.dimension
            anti = ctx.anti_invariant.dimension
            yield [_row(fmt, TABLE_COLUMNS, [
                tag, J, K, profile.n, profile.d, profile.l, pair.f,
                pair.dim_x, pair.dim_y, cosets, inv, anti,
                inv == cosets and anti == cosets,
            ])]

    envelope = {"schema": SCHEMA, "command": "table", "rows": [_ITEMS]}
    return _document(fmt, envelope, TABLE_COLUMNS, batches())


def _components_doc(fmt, tag, roots, group, pairs) -> Iterator[str]:
    sep = ",\n" if fmt == "json" else "\n"
    quote = json.dumps if fmt == "json" else str
    # every cell but the type varies, so the row is rendered once per document
    # with a placeholder in each of them (no cell can hold one) and cut around
    # them into its fixed pieces; a row is then those pieces joined with its
    # cells' text (names s1s2..., e need no csv quoting; eta and the dimensions
    # are true/false and integers, the same text in every format)
    slots = [f"\x00{column}" for column in COMPONENT_COLUMNS[1:]]
    fixed = [_row(fmt, COMPONENT_COLUMNS, [tag, *slots])]
    for slot in slots:
        fixed[-1:] = fixed[-1].split(quote(slot))
    # a subset's cell is the same text as J and as K: cut once per subset out
    # of a one-cell row, as the placeholder is cut out of its own
    before, after = _row(fmt, ["J"], [slots[0]]).split(quote(slots[0]))
    cells = {S: _row(fmt, ["J"], [S]).removeprefix(before).removesuffix(after)
             for S in set(chain.from_iterable(pairs))}
    labels: dict[int, str] = {}  # element index -> rendered label, on first use

    def batches():
        for J, K in pairs:
            pair = varieties.pair_profile(roots, J, K)
            # Y is equidimensional, so only the label and eta vary within a pair
            head = fixed[0] + cells[J] + fixed[1] + cells[K] + fixed[2]
            mid = fixed[3] + _cell(pair.dim_x) + fixed[4] + _cell(pair.dim_y) + fixed[5]
            ends = {eta: mid + _cell(eta) + fixed[6] + sep for eta in (False, True)}
            parts = []
            # index-level rows: the y_components reports would cost more than the text
            for m, eta in parabolic._component_reps(group, pair.J, pair.K):
                label = labels.get(m)
                if label is None:
                    label = labels[m] = quote(group.elements[m].name)
                parts += (head, label, ends[eta])
            parts[-1] = parts[-1].removesuffix(sep)
            yield ["".join(parts)]  # every row in one string, joined as _document joins rows

    envelope = {"schema": SCHEMA, "command": "components", "rows": [_ITEMS]}
    return _document(fmt, envelope, COMPONENT_COLUMNS, batches())


def _verify_doc(fmt, tag, group, pairs, hotta, tally: Counter) -> Iterator[str]:
    """The verify document; ``tally`` counts the reports written, passed
    before failed, and is the JSON summary."""

    def render(r):
        if fmt == "json":
            return _json_item(varieties.report_jsonable(r))
        if fmt == "csv":
            return _row(fmt, VERIFY_COLUMNS, [tag, r.claim, r.expected, r.computed, r.passed])
        status = "PASS" if r.passed else "FAIL"
        return f"{status} {r.claim}: expected {r.expected}, computed {r.computed}"

    def batches():
        checks = ([varieties.verify_invariant_isomorphism(group, J, K),
                   varieties.verify_anti_invariant_isomorphism(group, J, K),
                   varieties.averaging_image_check(group, J, K)] for J, K in pairs)
        if hotta:
            checks = chain(checks, (
                [varieties.hotta_verification(group, s)] for s in range(group.rank)))
        for reports in checks:
            yield [render(r) for r in reports]
            # reached when the next piece is asked for, so once this one is written
            tally.update("passed" if r.passed else "failed" for r in reports)

    envelope = {"schema": SCHEMA, "command": "verify", "type": tag,
                "reports": [_ITEMS], "summary": tally}
    yield from _document(fmt, envelope, VERIFY_COLUMNS if fmt == "csv" else None, batches())
    if fmt == "markdown":
        yield "summary: {passed} passed, {failed} failed\n".format_map(tally)


def _stream(doc, path) -> str | None:
    """Write the document to ``path``, or to stdout; the error if a write failed.

    A reader that closed the pipe is no error: the sweep just stops there.
    """
    try:
        with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
            for piece in doc:
                out.write(piece)
            out.flush()
    except OSError as exc:
        if not path:
            # point stdout's descriptor, if it has one, at /dev/null, so that the
            # interpreter's flush at exit finds no error in the bytes still buffered
            with suppress(AttributeError, OSError, ValueError):
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            return f"cannot write {path or 'stdout'}: {exc}"
    return None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # every input is checked before --out is opened and before the first byte
    try:
        datum, roots, group = _load_group(args)
        pairs, hotta = _resolve_pairs(args, group.rank)
    except (InvalidSubset, ParseError, NotGeneralizedCartan, NotFiniteType,
            OrderCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_SUBSET if isinstance(exc, InvalidSubset) else EXIT_PARSE_ERROR
    tag = datum.type_name or "custom"
    tally = Counter(passed=0, failed=0)  # verify reports written
    if args.command == "table":
        doc = _table_doc(args.format, tag, roots, group, pairs)
    elif args.command == "components":
        doc = _components_doc(args.format, tag, roots, group, pairs)
    else:
        doc = _verify_doc(args.format, tag, group, pairs, hotta, tally)
    error = _stream(doc, args.out)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    return EXIT_VERIFY_FAILED if tally["failed"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
