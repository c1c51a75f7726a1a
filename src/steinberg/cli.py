"""Batch command line front end.

Subcommands: ``table`` (dimension/coset rows per parabolic pair),
``components`` (component inventories), ``verify`` (exact verification
reports, exit 1 on any failure).  Subsets on the command line are 0-based;
rendered names s1, s2, ... are 1-based.  Output is deterministic:
identical configs produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .errors import (
    InvalidSubset,
    NotFiniteType,
    NotGeneralizedCartan,
    OrderCapExceeded,
    ParseError,
)
from .rootsys import (
    DEFAULT_ORDER_CAP,
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
    if args.type is not None:
        datum = cartan_from_name(args.type)
    else:
        try:
            with open(args.cartan, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise ParseError(f"cannot read {args.cartan}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {args.cartan}: {exc}") from exc
        except RecursionError as exc:
            raise ParseError(f"JSON in {args.cartan} is nested too deeply") from exc
        if not isinstance(payload, dict) or "matrix" not in payload:
            raise ParseError(f"{args.cartan} must contain a 'matrix' key")
        datum = validate_cartan(payload["matrix"], payload.get("labels"))
    roots = root_system(datum)
    group = enumerate_weyl(roots, order_cap=args.order_cap)
    return datum, roots, group


def _parse_subset(text: str | None, rank: int) -> tuple[int, ...]:
    if text is None or text.strip() == "":
        return ()
    parts = [p.strip() for p in text.split(",")]
    try:
        indices = [int(p) for p in parts]
    except ValueError:
        raise InvalidSubset(f"subset {text!r} is not a comma-separated integer list")
    return parabolic.normalize_subset(rank, indices)


def _all_subsets(rank: int) -> list[tuple[int, ...]]:
    # binary-counting order: {}, {0}, {1}, {0,1}, {2}, ...
    return [
        tuple(i for i in range(rank) if mask >> i & 1)
        for mask in range(1 << rank)
    ]


def _resolve_pairs(args, rank: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    if args.all_pairs:
        subsets = _all_subsets(rank)
        return [(J, K) for J in subsets for K in subsets]
    if args.p is None and args.q is None:
        return []
    return [(_parse_subset(args.p, rank), _parse_subset(args.q, rank))]


def _fmt_subset(subset) -> str:
    return ",".join(str(i) for i in subset) if subset else "-"


def _markdown_row(cells) -> str:
    return "| " + " | ".join(str(c) for c in cells) + " |"


def _markdown(headers, rows) -> str:
    lines = [headers, ["---"] * len(headers), *rows]
    return "\n".join(map(_markdown_row, lines)) + "\n"


def _csv(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _run_table(args, datum, roots, group, pairs) -> tuple[str, int]:
    tag = datum.type_name or "custom"
    profile = varieties.geometry_profile(roots)
    as_json = args.format == "json"
    rows = []
    for J, K in pairs:
        pair = varieties.pair_profile(roots, J, K)
        ctx = varieties.pair_context(group, J, K)
        cosets = len(ctx.dec_jk)
        inv = ctx.invariant.dimension
        anti = ctx.anti_invariant.dimension
        passed = inv == cosets and anti == cosets
        if as_json:
            rows.append({
                "type": tag, "J": list(J), "K": list(K),
                "n": profile.n, "d": profile.d, "l": profile.l, "f": pair.f,
                "dimX": pair.dim_x, "dimY": pair.dim_y,
                "cosets": cosets, "inv_dim": inv, "anti_dim": anti,
                "passed": passed,
            })
        else:
            rows.append([
                tag, _fmt_subset(J), _fmt_subset(K),
                profile.n, profile.d, profile.l, pair.f,
                pair.dim_x, pair.dim_y, cosets, inv, anti, _bool(passed),
            ])
    if as_json:
        text = json.dumps({"schema": SCHEMA, "command": "table", "rows": rows},
                          indent=2) + "\n"
    elif args.format == "csv":
        text = _csv(TABLE_COLUMNS, rows)
    else:
        text = _markdown(TABLE_COLUMNS, rows)
    return text, EXIT_OK


def _run_components(args, datum, roots, group, pairs) -> tuple[str, int]:
    tag = datum.type_name or "custom"
    fmt = args.format
    if fmt == "json":
        # the bytes of json.dumps({"schema", "command", "rows"}, indent=2)
        opening = f'{{\n  "schema": "{SCHEMA}",\n  "command": "components",\n  "rows": [\n'
        sep, closing = ",\n", "\n  ]\n}\n"
    else:
        opening = (_csv if fmt == "csv" else _markdown)(COMPONENT_COLUMNS, [])
        sep = closing = "\n"
    parts = [opening]
    quote = json.dumps if fmt == "json" else str
    labels: dict[int, str] = {}  # element index -> rendered label, on first use
    for J, K in pairs:
        pair = varieties.pair_profile(roots, J, K)
        # Y is equidimensional, so only the label and eta vary within a pair
        head, mid, tail = _component_row_parts(fmt, tag, J, K, pair.dim_x, pair.dim_y)
        ends = {eta: mid + _bool(eta) + tail + sep for eta in (False, True)}
        # index-level rows: the y_components reports would cost more than the text
        for m, eta in varieties._component_reps(group, pair.J, pair.K):
            label = labels.get(m)
            if label is None:
                label = labels[m] = quote(group.elements[m].name)
            parts += (head, label, ends[eta])
    parts[-1] = parts[-1].removesuffix(sep) + closing
    return "".join(parts), EXIT_OK


_LABEL, _ETA = "\x00label", "\x00eta"  # placeholders; no cell can hold them


def _component_row_parts(fmt, tag, J, K, dim_z, dim_y) -> tuple[str, str, str]:
    """A pair's component row rendered once, split around label and eta.

    Names (s1s2..., e) need no csv quoting and eta is true/false in every
    format, so a row is head + label + mid + eta + tail.
    """
    subsets = [list(J), list(K)] if fmt == "json" else [_fmt_subset(J), _fmt_subset(K)]
    cells = [tag, *subsets, _LABEL, dim_z, dim_y, _ETA]
    if fmt == "json":
        text = json.dumps(dict(zip(COMPONENT_COLUMNS, cells)), indent=2)
        # re-indented to the depth of an item of "rows"
        text = "    " + text.replace("\n", "\n    ")
        text = text.replace(json.dumps(_LABEL), _LABEL).replace(json.dumps(_ETA), _ETA)
    else:
        text = _csv(cells, [])[:-1] if fmt == "csv" else _markdown_row(cells)
    head, rest = text.split(_LABEL)
    mid, tail = rest.split(_ETA)
    return head, mid, tail


def _run_verify(args, datum, roots, group, pairs) -> tuple[str, int]:
    tag = datum.type_name or "custom"
    hotta = getattr(args, "hotta", False)
    if not pairs and not hotta and not args.all_pairs:
        # no explicit selection: sweep everything
        subsets = _all_subsets(group.rank)
        pairs = [(J, K) for J in subsets for K in subsets]
        hotta = True
    reports = []
    for J, K in pairs:
        reports.append(varieties.verify_invariant_isomorphism(group, J, K))
        reports.append(varieties.verify_anti_invariant_isomorphism(group, J, K))
        reports.append(varieties.averaging_image_check(group, J, K))
    if hotta:
        for s in range(group.rank):
            reports.append(varieties.hotta_verification(group, s))
    n_passed = sum(1 for r in reports if r.passed)
    n_failed = len(reports) - n_passed
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "verify",
            "type": tag,
            "reports": [varieties.report_jsonable(r) for r in reports],
            "summary": {"passed": n_passed, "failed": n_failed},
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        rows = [[tag, r.claim, r.expected, r.computed, _bool(r.passed)]
                for r in reports]
        text = _csv(VERIFY_COLUMNS, rows)
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{status} {r.claim}: expected {r.expected}, computed {r.computed}"
            )
        lines.append(f"summary: {n_passed} passed, {n_failed} failed")
        text = "\n".join(lines) + "\n"
    return text, EXIT_OK if n_failed == 0 else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        datum, roots, group = _load_group(args)
        pairs = _resolve_pairs(args, group.rank)
        if not pairs and args.command in ("table", "components"):
            pairs = [((), ())]
        if args.command == "table":
            text, code = _run_table(args, datum, roots, group, pairs)
        elif args.command == "components":
            text, code = _run_components(args, datum, roots, group, pairs)
        else:
            text, code = _run_verify(args, datum, roots, group, pairs)
    except (ParseError, NotGeneralizedCartan, NotFiniteType, OrderCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except InvalidSubset as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_SUBSET
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
