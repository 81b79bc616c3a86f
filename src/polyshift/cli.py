"""Command-line interface: ``polyshift hs | soc | check | betti | fuzz``.

Inputs are read from ``--input FILE`` (or ``-`` for stdin) in either the
generator-list grammar or the family-document dialect.  Reports are JSON
(``--json`` for compact machine output) and are byte-reproducible from the
input and seed; wall-clock timings appear only under ``--timings``.

Exit codes: 0 success, 1 usage or parse error (a bad value included: a
modulus that is not a prime below 2^31, a bad ``POLYSHIFT_PRIME``, an
out-of-range count, fuzz budget or exponent, a ``betti --cap`` below 1),
2 precondition violation, 3 resource cap exceeded, 4 internal cross-route
disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Any, Optional

import numpy as np

from .errors import (
    DegreeMismatchError,
    FamilySpecError,
    ParseError,
    PolyshiftError,
    ResourceCapError,
    RouteDisagreementError,
    UnsupportedFamilyError,
    ZeroIdealError,
)
from .families import as_transversal, check_exchange, is_strongly_stable
from .fuzzlab import CONJECTURE_KEYS, CampaignConfig, run_campaign
from .monomials import MonomialIdeal, VariableOrder, _term
from .oracle import LATTICE_CAP, betti_table, validate_prime
from .quotients import (
    QuotientCertificate,
    certify_lex,
    find_admissible_order,
    homological_shift,
    shifts_by_distance,
)
from .socle import (
    family_socle,
    intersection_graph,
    socle_report,
    spanning_tree_socle,
)
from .textio import (
    IdealSource,
    format_ideal,
    format_spec,
    ideal_to_json,
    parse_ideal,
    parse_variable_order,
)

USAGE_EXIT = 1
PRECONDITION_EXIT = 2
RESOURCE_EXIT = 3
DISAGREEMENT_EXIT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_source(args) -> IdealSource:
    return parse_ideal(_read_input(args.input))


def _emit(report: dict[str, Any], args) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, sort_keys=True))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _shift_map(ideals: dict[int, MonomialIdeal]) -> dict[str, list[str]]:
    return {str(j): [str(g) for g in ideal.gens] for j, ideal in sorted(ideals.items())}


def cmd_hs(args) -> int:
    source = _load_source(args)
    I = source.ideal
    if I.is_zero:
        raise ZeroIdealError("shift ideals of the zero ideal are all zero")
    # before any route: a route that is skipped would never see the level
    if args.j is not None and args.j < 0:
        raise ValueError("homological index must be nonnegative")
    vo = (
        parse_variable_order(args.order, I.n)
        if args.order
        else VariableOrder.identity(I.n)
    )
    want = ("certificate", "distance", "oracle") if args.route == "all" else (args.route,)
    timings: dict[str, float] = {}

    cert = None
    cert_reason = None
    result = certify_lex(I, vo)
    if isinstance(result, QuotientCertificate):
        cert = result
    else:
        search = find_admissible_order(I)
        if search.status == "certified":
            cert = search.certificate
            cert_reason = "lex order under the given variable order failed; found another admissible order"
        else:
            cert_reason = f"no admissible order ({search.status})"

    table = None
    pd: Optional[int] = None
    if cert is not None:
        pd = cert.projective_dimension
    if "oracle" in want or pd is None:
        start = time.perf_counter()
        table = betti_table(I)
        timings["oracle"] = time.perf_counter() - start
        pd = table.pd if pd is None else pd

    levels = [args.j] if args.j is not None else list(range(pd + 2))
    routes: dict[str, Any] = {}
    for route in want:
        if route == "certificate":
            if cert is None:
                routes[route] = {"status": "skipped", "reason": cert_reason}
                continue
            start = time.perf_counter()
            shifts = {j: homological_shift(cert, j) for j in levels}
            timings["certificate"] = time.perf_counter() - start
            entry: dict[str, Any] = {"status": "ok", "shifts": _shift_map(shifts)}
            if cert_reason:
                entry["note"] = cert_reason
            routes[route] = entry
        elif route == "distance":
            if cert is None:
                routes[route] = {"status": "skipped", "reason": cert_reason}
                continue
            if not I.is_equigenerated:
                routes[route] = {
                    "status": "skipped",
                    "reason": "distance route requires an equigenerated ideal",
                }
                continue
            start = time.perf_counter()
            shifts = {j: shifts_by_distance(cert, j) for j in levels}
            timings["distance"] = time.perf_counter() - start
            routes[route] = {"status": "ok", "shifts": _shift_map(shifts)}
        else:  # the table was built above whenever the oracle is wanted
            shifts = {j: table.shift_ideal(j) for j in levels}
            routes[route] = {"status": "ok", "shifts": _shift_map(shifts)}

    computed = [r["shifts"] for r in routes.values() if r["status"] == "ok"]
    agreement = None
    if len(computed) > 1:
        agreement = all(c == computed[0] for c in computed[1:])
    report = {
        "command": "hs",
        "input": format_ideal(I),
        "n": I.n,
        "variable_order": str(vo),
        "pd": pd,
        "routes": routes,
        "agreement": agreement,
    }
    if source.spec is not None:
        report["family"] = format_spec(source.spec)
    if args.timings:
        report["timings"] = timings
    _emit(report, args)
    if agreement is False:
        raise RouteDisagreementError("shift routes disagree; see report")
    return 0


def cmd_soc(args) -> int:
    source = _load_source(args)
    I = source.ideal
    report: dict[str, Any] = {
        "command": "soc",
        "input": format_ideal(I),
        "n": I.n,
        "variable_order": str(VariableOrder.identity(I.n)),
    }
    if source.spec is not None:
        report["family"] = format_spec(source.spec)

    base = socle_report(I)
    report["socle"] = ideal_to_json(base.socle)
    report["max_pd"] = base.max_pd
    report["route"] = base.route
    report["witness"] = None if base.witness is None else str(base.witness)
    report["top_shift"] = ideal_to_json(base.top_shift)

    routes: dict[str, Any] = {
        name: ideal_to_json(soc) for name, soc in base.routes.items()
    }
    if source.spec is not None:
        try:
            routes["closed-form"] = ideal_to_json(family_socle(source.spec))
        except (UnsupportedFamilyError, DegreeMismatchError) as exc:
            routes["closed-form"] = {"skipped": str(exc)}
    report["routes"] = routes
    values = [v for v in routes.values() if "skipped" not in v]
    agreement = all(v == values[0] for v in values[1:]) if len(values) > 1 else None
    report["agreement"] = agreement

    tspec = as_transversal(source.spec) if source.spec is not None else None
    if tspec is not None:
        graph = intersection_graph(tspec)
        candidates = spanning_tree_socle(tspec)
        report["intersection_graph"] = {
            "vertices": graph.num_vertices,
            "edges": [list(e) for e in graph.edges],
            "connected": graph.is_connected,
            "components": graph.component_count(),
            "covers_variables": tspec.covers_variables,
        }
        report["spanning_tree_socle"] = ideal_to_json(candidates)
        report["spanning_tree_equals_socle"] = candidates == base.socle
    _emit(report, args)
    if agreement is False:
        raise RouteDisagreementError("socle routes disagree; see report")
    return 0


def cmd_check(args) -> int:
    source = _load_source(args)
    I = source.ideal
    report: dict[str, Any] = {
        "command": "check",
        "input": format_ideal(I),
        "n": I.n,
        "property": args.property,
    }
    if args.property == "matroidal" and not I.is_squarefree:
        offender = next(g for g in I.gens if not g.is_squarefree)
        report["verdict"] = False
        report["reason"] = "not squarefree"
        report["witness"] = [str(offender)]
    elif args.property in ("polymatroidal", "strong-exchange", "matroidal"):
        mode = "strong" if args.property == "strong-exchange" else "exchange"
        result = check_exchange(I, mode)
        report["verdict"] = bool(result.holds)
        if result.witness:
            report["witness"] = [
                str(w) if not isinstance(w, int) else w for w in result.witness
            ]
        if result.reason:
            report["reason"] = result.reason
    elif args.property == "strongly-stable":
        result = is_strongly_stable(I)
        report["verdict"] = bool(result.holds)
        if result.witness:
            u, i, j = result.witness
            report["witness"] = [str(u), i, j]
    else:  # linear-quotients
        search = find_admissible_order(I)
        report["verdict"] = search.status == "certified"
        report["status"] = search.status
        if search.certificate is not None:
            cert = search.certificate
            report["order"] = [str(g) for g in cert.ordered_gens]
            report["colon_variables"] = [list(s) for s in cert.colon_vars]
    _emit(report, args)
    return 0


def _multidegrees(rows: np.ndarray) -> list[str]:
    """``str(Monomial(row))`` of each exponent row.  Each column's distinct
    exponents are written once, by ``monomials._term`` with a ``*``
    after, and every row joins its columns' and drops the last ``*``."""
    columns = []
    for i, column in enumerate(rows.T.tolist(), 1):
        terms = {e: _term(i, e) + "*" if e else "" for e in set(column)}
        columns.append(list(map(terms.__getitem__, column)))
    if not columns:  # no variables: every row is the unit
        return ["1"] * len(rows)
    return [text[:-1] or "1" for text in map("".join, zip(*columns))]


def cmd_betti(args) -> int:
    source = _load_source(args)
    I = source.ideal
    table = betti_table(I, args.prime, args.cap)
    # the rows come in lattice order, so a stable sort on the index alone
    # keeps each index's multidegrees descending-lex
    order = np.argsort(table.index, kind="stable")
    index, rank = table.index[order].tolist(), table.rank[order].tolist()
    entries = [
        {"i": i, "multidegree": a, "rank": r}
        for i, a, r in zip(index, _multidegrees(table.rows[order]), rank)
    ]
    pd = table.pd
    report = {
        "command": "betti",
        "input": format_ideal(I),
        "n": I.n,
        "prime": table.prime,
        "pd": pd,
        "totals": {str(i): t for i, t in table.totals().items()},
        "entries": entries,
        # pd relative to the support; the unit ideal counts as maximal
        "max_pd": not I.is_zero and (not I.support or pd == len(I.support) - 1),
    }
    _emit(report, args)
    return 0


def _parse_budget(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    if not text:
        return out
    for piece in text.split(","):
        key, eq, value = piece.partition("=")
        key = key.strip()
        if key not in ("n_max", "degree_max", "gen_max"):
            raise ParseError(f"unknown budget key {key!r}")
        if key in out:
            raise ParseError(f"budget entry {key} is given twice")
        if not eq:
            raise ParseError(f"budget entry {key} has no value; write {key}=<integer>")
        try:
            out[key] = int(value)
        except ValueError:
            raise ParseError(
                f"budget entry {key} must be an integer, got {value!r}"
            ) from None
    return out


def cmd_fuzz(args) -> int:
    budget = _parse_budget(args.budget or "")
    conjectures = frozenset(CONJECTURE_KEYS)
    if args.conjectures is not None:
        conjectures = frozenset(c.strip() for c in args.conjectures.split(",")) - {""}
        if not conjectures:
            raise ValueError(
                "--conjectures names no conjecture; choose from "
                + ",".join(CONJECTURE_KEYS)
            )
    config = CampaignConfig(
        seed=args.seed,
        instance_count=args.count,
        conjectures=conjectures,
        **budget,
    )
    try:
        config.budget  # a bad budget value is a bad CLI value, not a precondition
    except FamilySpecError as exc:
        raise ValueError(str(exc)) from None
    handle = None
    sink = None
    if args.output:
        handle = open(args.output, "w", encoding="utf-8")
        sink = lambda line: handle.write(line + "\n")
    try:
        summary = run_campaign(config, sink)
    finally:
        if handle is not None:
            handle.close()
    _emit(summary.to_json(), args)
    if summary.disagreements:
        raise RouteDisagreementError(
            f"{len(summary.disagreements)} cross-route disagreements; see report"
        )
    return 0


def _prime(text: str) -> int:
    try:
        return validate_prime(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"the modulus must be a prime below 2^31, got {text!r}"
        ) from None


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polyshift")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input file, or - for stdin")
        p.add_argument("--json", action="store_true", help="compact JSON output")

    hs = sub.add_parser("hs", help="homological shift ideals")
    common(hs)
    level = hs.add_mutually_exclusive_group()
    level.add_argument("-j", type=int, default=None, help="single homological index")
    level.add_argument("--all", action="store_true", help="all indices up to pd (default)")
    hs.add_argument(
        "--route",
        choices=["certificate", "distance", "oracle", "all"],
        default="all",
    )
    hs.add_argument("--order", default=None, help='variable order like "x2>x1>x3"')
    hs.add_argument("--timings", action="store_true", help="include wall-clock timings")

    soc = sub.add_parser("soc", help="socle ideal and maximal projective dimension")
    common(soc)

    chk = sub.add_parser("check", help="classify an ideal")
    common(chk)
    chk.add_argument(
        "--property",
        required=True,
        choices=[
            "polymatroidal",
            "matroidal",
            "strong-exchange",
            "strongly-stable",
            "linear-quotients",
        ],
    )

    bet = sub.add_parser("betti", help="multigraded Betti table via the homology oracle")
    common(bet)
    bet.add_argument("--prime", type=_prime, default=None)
    bet.add_argument("--cap", type=int, default=LATTICE_CAP, help="lcm-lattice size cap")

    fz = sub.add_parser("fuzz", help="run a conjecture-fuzzing campaign")
    fz.add_argument("--seed", type=int, required=True)
    fz.add_argument("--count", type=int, required=True)
    fz.add_argument("--budget", default=None, help="n_max=5,degree_max=4,gen_max=120")
    fz.add_argument(
        "--conjectures", default=None, help="comma list of bbh,chl,transversal_socle"
    )
    fz.add_argument("--output", default=None, help="JSON-lines report path")
    fz.add_argument("--json", action="store_true", help="compact JSON output")
    return parser


_COMMANDS = {
    "hs": cmd_hs,
    "soc": cmd_soc,
    "check": cmd_check,
    "betti": cmd_betti,
    "fuzz": cmd_fuzz,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return RESOURCE_EXIT
    except RouteDisagreementError as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return DISAGREEMENT_EXIT
    except PolyshiftError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OverflowError) as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
