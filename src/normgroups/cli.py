"""Command line front end.

Subcommands: check (one map, optionally one witness pair), normalizing
(every singular map), k-normalizing (every rank-k map), classify (whole
catalog of one degree), reps (conjugation-orbit representatives), groups
list (the catalog), filters (structural necessary conditions).

Exit codes follow the verdict: 0 normalizing / success, 1 not
normalizing / classification mismatch, 2 usage error.
JSON output carries "schema": 1 and is byte-identical for identical
inputs regardless of worker count; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, Sequence

from .catalog import catalog, catalog_labels, catalog_degrees
from .groups import PermutationGroup, group_from_generator_text
from .normalizing import (
    CLASSIFICATION_TABLE,
    M12_WITNESS_MAP,
    STATUS_NORMALIZING,
    STATUS_NOT,
    ConjugacySweep,
    NormalizingVerdict,
    SweepProgress,
    check_pair,
    classify,
    is_a_normalizing,
    is_k_normalizing,
    is_normalizing,
    m12_witness_check,
    structural_filters,
    sweep_cache_path,
)
from .transform import ParseError, Permutation, Transformation

CACHE_ENV = "NORMGROUPS_CACHE_DIR"

EXIT_OK = 0
EXIT_NOT = 1
EXIT_ERROR = 2

_STATUS_EXIT = {
    STATUS_NORMALIZING: EXIT_OK,
    STATUS_NOT: EXIT_NOT,
}


class CliError(Exception):
    pass


def _load_group(args) -> PermutationGroup:
    if getattr(args, "group_file", None):
        with open(args.group_file, encoding="utf-8") as fh:
            group = group_from_generator_text(
                fh.read(),
                degree=args.degree,
                label=os.path.basename(args.group_file),
            )
    elif getattr(args, "group", None):
        if args.degree is None:
            raise CliError("--degree is required with --group")
        group = catalog(args.group, args.degree)
    else:
        raise CliError("one of --group or --group-file is required")
    return group


def _emit(args, payload: dict, table_lines: Sequence[str]) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    else:
        text = "\n".join(table_lines)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _progress_printer(args):
    if not getattr(args, "progress", False):
        return None

    def cb(p: SweepProgress) -> None:
        pct = 100.0 * p.singular_seen / p.singular_total if p.singular_total else 100.0
        rate = p.checked / p.seconds if p.seconds > 0 else 0.0
        print(
            f"[{p.group}] reps {p.checked} ({rate:.0f}/s), orbits {p.orbits}, "
            f"maps {p.singular_seen}/{p.singular_total} ({pct:.1f}%)",
            file=sys.stderr,
            flush=True,
        )

    return cb


def _verdict_lines(v: NormalizingVerdict, *, timings: bool) -> list[str]:
    lines = [
        f"group:    {v.group}",
        f"status:   {v.status}",
    ]
    if v.map is not None:
        lines.append(f"map:      {v.map.image_csv()}")
    if v.witness is not None:
        lines.append(f"witness:  g = {v.witness.g.cycle_string()}")
        lines.append(f"reason:   {v.witness.reason}")
    lines.append(f"strategy: {' -> '.join(v.trace)}")
    lines.append(f"checked:  {v.checked}")
    if timings:
        lines.append(f"seconds:  {v.seconds:.3f}")
    return lines


def _verdict_payload(args, command: str, v: NormalizingVerdict) -> dict:
    out = {"schema": 1, "command": command}
    out.update(v.to_dict(timings=args.timings))
    return out


def _resolve_cache(args, group: PermutationGroup, rank: int | None) -> str | None:
    path = getattr(args, "resume", None)
    if path:
        return path
    root = os.environ.get(CACHE_ENV)
    return sweep_cache_path(root, group, rank) if root else None


def cmd_check(args) -> int:
    group = _load_group(args)
    a = Transformation.parse(args.map, group.degree)
    if args.witness:
        g = Permutation.parse(args.witness, group.degree)
        v = check_pair(group, a, g)
    elif a.one_based() == M12_WITNESS_MAP and group.generators == catalog("M12", 12).generators:
        # the catalog's M12, under any label: report the published witness pair
        v = m12_witness_check()
    else:
        v = is_a_normalizing(group, a)
    _emit(args, _verdict_payload(args, "check", v), _verdict_lines(v, timings=args.timings))
    return _STATUS_EXIT[v.status]


def cmd_normalizing(args) -> int:
    group = _load_group(args)
    v = is_normalizing(
        group,
        workers=args.workers,
        cache_path=_resolve_cache(args, group, None),
        progress=_progress_printer(args),
        progress_interval=args.progress_interval,
    )
    _emit(args, _verdict_payload(args, "normalizing", v), _verdict_lines(v, timings=args.timings))
    return _STATUS_EXIT[v.status]


def cmd_k_normalizing(args) -> int:
    group = _load_group(args)
    v = is_k_normalizing(
        group,
        args.rank,
        workers=args.workers,
        cache_path=_resolve_cache(args, group, args.rank),
        progress=_progress_printer(args),
        progress_interval=args.progress_interval,
    )
    payload = _verdict_payload(args, "k-normalizing", v)
    payload["rank"] = args.rank
    lines = [f"rank:     {args.rank}"] + _verdict_lines(v, timings=args.timings)
    _emit(args, payload, lines)
    return _STATUS_EXIT[v.status]


def cmd_classify(args) -> int:
    cache_dir = args.resume or os.environ.get(CACHE_ENV)
    report = classify(
        args.degree,
        workers=args.workers,
        cache_dir=cache_dir,
        progress=_progress_printer(args),
        progress_interval=args.progress_interval,
    )
    payload = {"schema": 1, "command": "classify"}
    payload.update(report.to_dict(timings=args.timings))
    lines = [f"degree {report.degree}"]
    for v in report.verdicts:
        mark = "+" if v.normalizing else "-"
        extra = ""
        if v.witness is not None:
            extra = f"  [map {v.map.image_csv()}, g = {v.witness.g.cycle_string()}]"
        lines.append(f"  {mark} {v.group:12s} {v.status}{extra}")
    lines.append(f"expected normalizing: {', '.join(sorted(report.expected))}")
    lines.append(f"computed normalizing: {', '.join(sorted(report.normalizing_labels))}")
    lines.append(f"match: {'yes' if report.matches_expected else 'no'}")
    _emit(args, payload, lines)
    return EXIT_OK if report.matches_expected else EXIT_NOT


def cmd_reps(args) -> int:
    group = _load_group(args)
    sweep = ConjugacySweep(group, rank=args.rank)
    rows = []
    lines = []
    for i, (rep, size) in enumerate(sweep):
        if args.limit is not None and i >= args.limit:
            break
        rows.append({"map": list(rep.one_based()), "orbit": size})
        lines.append(f"{rep.image_csv()}\torbit {size}")
    payload = {
        "schema": 1,
        "command": "reps",
        "group": group.label,
        "degree": group.degree,
        "rank": args.rank,
        "count": len(rows),
        "reps": rows,
    }
    lines.append(f"{len(rows)} representatives")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_groups(args) -> int:
    degrees = [args.degree] if args.degree else list(catalog_degrees())
    rows = []
    lines = []
    for n in degrees:
        for label in catalog_labels(n):
            g = catalog(label, n)
            rows.append(
                {
                    "label": label,
                    "degree": n,
                    "order": g.order(),
                    "transitive": g.is_transitive(),
                    "primitive": g.order() > 1 and g.is_primitive(),
                }
            )
            lines.append(
                f"{label:12s} degree {n}  order {g.order():>7d}"
                f"  {'transitive' if rows[-1]['transitive'] else 'intransitive'}"
                f"  {'primitive' if rows[-1]['primitive'] else 'imprimitive'}"
            )
    payload = {"schema": 1, "command": "groups", "groups": rows}
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_filters(args) -> int:
    group = _load_group(args)
    report = structural_filters(group)
    payload = {"schema": 1, "command": "filters"}
    payload.update(report.to_dict())
    lines = [f"group: {report.group} (degree {report.degree})"]
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        line = f"  {mark}  {c.name}: {c.detail}"
        if c.witness_map is not None:
            line += f"  [failing map {c.witness_map.image_csv()}]"
        lines.append(line)
    lines.append(
        "verdict: no structural obstruction"
        if report.passed
        else f"verdict: fails {report.first_rejection}; cannot be normalizing"
    )
    _emit(args, payload, lines)
    return EXIT_OK if report.passed else EXIT_NOT


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    parse.__name__ = "int"  # argparse names it when refusing a non-integer
    return parse


def _seconds(text: str) -> float:
    """An argparse type: a finite number of seconds, zero or more."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"{text} is not a finite number of seconds >= 0")
    return value


_seconds.__name__ = "float"  # argparse names it when refusing a non-number


def _add_group_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degree", type=int, help="degree n of the action")
    p.add_argument("--group", help="catalog label, e.g. AGL(1,5) or S7")
    p.add_argument("--group-file", help="file of generator permutations, one per line")


def _add_run_flags(
    p: argparse.ArgumentParser,
    resume_help: str = "sweep cache file, checkpointed once a minute and saved at completion",
) -> None:
    p.add_argument("--workers", type=_at_least(1), default=1, help="parallel worker processes")
    p.add_argument("--resume", help=resume_help)
    p.add_argument("--progress", action="store_true", help="progress on standard error")
    p.add_argument("--progress-interval", type=_seconds, default=5.0, metavar="SECONDS")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--timings", action="store_true", help="include wall time in reports")
    p.add_argument("--out", help="write the report to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normgroups",
        description="decide which permutation groups normalize singular transformations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check", help="decide aG within <a^G> for one map a, exactly and with no size cap"
    )
    _add_group_flags(p)
    p.add_argument("--map", required=True, help="1-based image list, e.g. 1,1,3,4,1")
    p.add_argument("--witness", help="single permutation g: test only a*g")
    _add_output_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("normalizing", help="decide a-normalizing for every singular a")
    _add_group_flags(p)
    _add_run_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_normalizing)

    p = sub.add_parser("k-normalizing", help="decide a-normalizing for every rank-k a")
    _add_group_flags(p)
    p.add_argument("--rank", type=int, required=True, help="rank k, 1 <= k < n")
    _add_run_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_k_normalizing)

    p = sub.add_parser("classify", help="compute the normalizing groups of one degree")
    p.add_argument("--degree", type=int, required=True,
                   choices=sorted(CLASSIFICATION_TABLE))
    _add_run_flags(p, "directory of sweep caches, one file per swept candidate group, "
                      "each checkpointed once a minute and saved at completion")
    _add_output_flags(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("reps", help="list conjugation-orbit representatives")
    _add_group_flags(p)
    p.add_argument("--rank", type=int, help="only representatives of this rank")
    p.add_argument("--limit", type=_at_least(0), help="stop after this many representatives")
    _add_output_flags(p)
    p.set_defaults(fn=cmd_reps)

    p = sub.add_parser("groups", help="catalog listing")
    p.add_argument("action", choices=("list",))
    p.add_argument("--degree", type=int)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_groups)

    p = sub.add_parser("filters", help="structural necessary conditions for one group")
    _add_group_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_filters)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
