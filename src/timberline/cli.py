"""Command-line interface.

One subcommand per estimator family plus data plumbing (fetch, validate,
clip, evalids).  Tables go to stdout or --output as CSV (default), JSON, or
GeoJSON; --pretty renders an aligned two-decimal view for reading at the
terminal.  Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from pathlib import Path

from . import attributes, output
from .errors import TimberlineError, UsageError
from .evals import ClipOptions, clip, find_evaluations
from .io import fetch_state, load_database, write_database
from .model import validate_integrity
from .core import EstimateTable
from .spatial import PolygonSet

log = logging.getLogger(__name__)

# subcommand -> estimator family
_FAMILY_COMMANDS = {
    "tpa": "tpa",
    "biomass": "biomass",
    "area": "area",
    "growmort": "growMort",
    "vitalrates": "vitalRates",
    "dwm": "dwm",
    "diversity": "diversity",
    "invasive": "invasive",
    "seedling": "seedling",
    "standstruct": "standStruct",
}


def _comma_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _lambda_list(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in _comma_list(raw))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number list: {raw!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("--lambda needs at least one value")
    return values


def _evalid_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _comma_list(raw))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an evalid list: {raw!r}") from None


def _db_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--db", required=True, help="database directory of CSV tables")
    p.add_argument(
        "--states",
        type=_comma_list,
        default=None,
        help="comma-separated state abbreviations (default: every state found in --db)",
    )
    return p


def _clip_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("evaluation selection")
    g.add_argument("--year", type=int, default=None, help="keep evaluations reported in this year")
    g.add_argument(
        "--evalid",
        type=_evalid_list,
        action="append",
        default=None,
        help="comma-separated evaluation ids to keep (repeatable)",
    )
    g.add_argument(
        "--most-recent",
        action="store_true",
        help="keep each state's most recent evaluation",
    )
    g.add_argument(
        "--match-eval",
        action="store_true",
        help="keep only report years common to every state",
    )
    g.add_argument("--mask", default=None, help="GeoJSON file; keep plots inside its polygons")
    return p


def _estimator_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("estimator options")
    g.add_argument(
        "--grp-by",
        type=_comma_list,
        action="append",
        default=None,
        help="comma-separated grouping columns (repeatable)",
    )
    g.add_argument("--by-species", action="store_true", help="group by species code")
    g.add_argument(
        "--by-size-class",
        action="store_true",
        help="group by 2-inch diameter class",
    )
    g.add_argument(
        "--by-plot",
        action="store_true",
        help="per-plot values of the TI sample instead of population estimates "
        "(no --variance or other --method)",
    )
    g.add_argument(
        "--tree-domain", default=None, help='record filter, e.g. "DIA >= 10 & STATUSCD == 1"'
    )
    g.add_argument("--area-domain", default=None, help='condition filter, e.g. "OWNCD == 31"')
    g.add_argument("--polys", default=None, help="GeoJSON polygons for spatial grouping")
    g.add_argument(
        "--return-spatial",
        action="store_true",
        help="join estimates back onto --polys (GeoJSON output)",
    )
    g.add_argument(
        "--method",
        default="TI",
        help="panel estimator: TI, ANNUAL, SMA, LMA, or EMA (default TI)",
    )
    g.add_argument(
        "--lambda",
        dest="lambdas",
        type=_lambda_list,
        default=(0.5,),
        help="EMA decay value(s), comma separated (default 0.5)",
    )
    layout = g.add_mutually_exclusive_group()
    layout.add_argument(
        "--tidy",
        dest="tidy",
        action="store_true",
        default=True,
        help="long output for multi-class families (default)",
    )
    layout.add_argument(
        "--wide",
        dest="tidy",
        action="store_false",
        help="one row per group with per-class columns (dwm, standstruct)",
    )
    g.add_argument(
        "--variance", action="store_true", help="add *_VAR variance columns"
    )
    g.add_argument(
        "--board-feet",
        action="store_true",
        help="add board-foot sawlog volume (biomass only)",
    )
    g.add_argument(
        "--basis",
        default="BA",
        choices=("BA", "TPA"),
        help="diversity abundance basis (default BA)",
    )
    return p


def _output_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("output")
    g.add_argument(
        "--format",
        default="csv",
        choices=("csv", "json", "geojson"),
        help="table serialization (default csv)",
    )
    g.add_argument("--output", default=None, help="write here instead of stdout")
    g.add_argument(
        "--pretty",
        action="store_true",
        help="aligned two-decimal display instead of full-precision CSV",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timberline",
        description="Design-based estimation over forest inventory CSV databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    db, clip_p, est, out = _db_parent(), _clip_parent(), _estimator_parent(), _output_parent()

    p = sub.add_parser("fetch", help="download state table files from the mirror")
    p.add_argument("states", nargs="+", help="state abbreviations to download")
    p.add_argument("--db", default=".", help="destination directory (default .)")
    p.set_defaults(func=_cmd_fetch)

    p = sub.add_parser("validate", parents=[db], help="check referential integrity")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "clip", parents=[db, clip_p], help="write a reduced copy of the database"
    )
    p.add_argument("--out", required=True, help="directory for the clipped copy")
    p.set_defaults(func=_cmd_clip)

    p = sub.add_parser("evalids", parents=[db, out], help="list evaluations")
    p.add_argument("--year", type=int, default=None, help="only this report year")
    p.set_defaults(func=_cmd_evalids)

    for command, family in _FAMILY_COMMANDS.items():
        p = sub.add_parser(
            command,
            parents=[db, clip_p, est, out],
            help=f"{family} estimates",
            description=_family_description(family),
        )
        p.set_defaults(func=_cmd_estimate, family=family)
    return parser


def _family_description(family: str) -> str:
    fam = attributes.FAMILIES[family]
    text = f"Estimate {family} attributes."
    if fam.base_domain:
        text += f"  Default record filter: {fam.base_domain}."
    return text


# --------------------------------------------------------------------------
# Commands.
# --------------------------------------------------------------------------


def _infer_states(directory: str) -> list[str]:
    root = Path(directory)
    found = sorted({f.name.split("_", 1)[0] for f in root.glob("*_PLOT.csv")})
    return found


def _load(args):
    states = args.states
    if not states:
        states = _infer_states(args.db)
    return load_database(args.db, states)


def _clip_options(args) -> ClipOptions | None:
    evalids: tuple[int, ...] = ()
    if args.evalid:
        evalids = tuple(e for chunk in args.evalid for e in chunk)
    mask = PolygonSet.from_geojson(args.mask) if args.mask else None
    if not (args.most_recent or args.match_eval or evalids or mask or args.year):
        return None
    return ClipOptions(
        most_recent=args.most_recent,
        match_eval=args.match_eval,
        evalids=evalids,
        mask=mask,
        year=args.year,
    )


@contextlib.contextmanager
def _writing(path):
    """An OSError while writing ``path`` is a data error, reported without a traceback."""
    try:
        yield
    except OSError as exc:
        raise TimberlineError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_text(args, text: str) -> None:
    if args.output:
        with _writing(args.output), open(args.output, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, table) -> None:
    if args.format == "json":
        text = output.table_to_json(table)
    elif args.pretty:
        text = output.table_to_pretty(table)
    else:
        text = output.table_to_csv(table)
    _write_text(args, text)


def _cmd_fetch(args) -> int:
    for state in args.states:
        files = fetch_state(state, args.db)
        print(f"{state}: {len(files)} files -> {args.db}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    db = _load(args)
    violations = validate_integrity(db)
    for v in violations:
        print(str(v))
    if violations:
        print(f"{len(violations)} integrity violation(s)", file=sys.stderr)
        return 1
    print("ok", file=sys.stderr)
    return 0


def _cmd_clip(args) -> int:
    db = _load(args)
    options = _clip_options(args)
    clipped = clip(db, options) if options else db
    with _writing(args.out):
        files = write_database(clipped, args.out)
    print(
        f"wrote {len(files)} files ({len(clipped.plots)} plots, "
        f"{len(clipped.evaluations)} evaluations) to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_evalids(args) -> int:
    db = _load(args)
    ids = find_evaluations(db, year=args.year)
    by_id = {e.evalid: e for e in db.evaluations}
    evs = [by_id[evalid] for evalid in ids]
    columns = {
        "EVALID": [ev.evalid for ev in evs],
        "STATECD": [ev.statecd for ev in evs],
        "EVAL_TYP": [ev.eval_typ if ev.eval_typ is not None else "VOL" for ev in evs],
        "REPORT_YEAR": [ev.report_year for ev in evs],
        "START_INVYR": [ev.start_invyr for ev in evs],
        "END_INVYR": [ev.end_invyr for ev in evs],
    }
    _emit_table(args, EstimateTable.from_columns(list(columns), list(columns.values())))
    return 0


def _format_problems(args) -> list[str]:
    problems = []
    if args.format == "geojson":
        if not args.polys:
            problems.append("geojson output requires --polys")
        if not args.return_spatial:
            problems.append("geojson output requires --return-spatial")
    elif args.return_spatial:
        problems.append("--return-spatial produces GeoJSON; pass --format geojson")
    if args.pretty and args.format != "csv":
        problems.append("--pretty applies to the csv format only")
    return problems


def _cmd_estimate(args) -> int:
    problems = _format_problems(args)
    polys = PolygonSet.from_geojson(args.polys) if args.polys else None
    db = _load(args)
    options = _clip_options(args)
    if options is not None:
        db = clip(db, options)
    grp_by: tuple[str, ...] = ()
    if args.grp_by:
        grp_by = tuple(g for chunk in args.grp_by for g in chunk)
    request = attributes.EstimatorRequest(
        grp_by=grp_by,
        tree_domain=args.tree_domain,
        area_domain=args.area_domain,
        by_species=args.by_species,
        by_size_class=args.by_size_class,
        by_plot=args.by_plot,
        polys=polys,
        return_spatial=args.return_spatial,
        method=args.method,
        lambdas=args.lambdas,
        tidy=args.tidy,
        variance=args.variance,
        board_feet=args.board_feet,
        basis=args.basis,
    )
    try:
        result = attributes.estimate(db, args.family, request)
    except UsageError as exc:
        raise UsageError(problems + list(exc.problems)) from None
    if problems:
        raise UsageError(problems)
    if args.return_spatial:
        _write_text(args, output.geojson_to_text(result))
    else:
        _emit_table(args, result)
    return 0


# --------------------------------------------------------------------------
# Entry point.
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except TimberlineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
