"""Command-line interface.

Subcommands: ``run`` (full pipeline from a manifest and/or flags),
``filter`` (row filtering for follow-up runs), and ``split`` (row-norm
split of a finished solution). Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 numerical non-convergence (outputs
are still written).
"""

from __future__ import annotations

import argparse
import logging
import sys

from .benchmarks import BenchmarkSpec
from .dataio import filter_rows, ingest_csv, write_csv
from .errors import ConfigError, DataError, PipelineError
from .pipeline import RunManifest, SolutionReport, relocate, run, split_and_project

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route through ConfigError
    # instead so data errors keep exit code 2 for themselves.
    def error(self, message):
        raise ConfigError(message)


def parse_benchmark(text: str) -> BenchmarkSpec:
    """Parse the --benchmark flag.

    Forms: file:PATH | permute:SEED | class:COL=LEVEL | lcg:NAME,SEED[,ROWS].
    """
    kind, _, rest = text.partition(":")
    if not rest:
        raise ConfigError(f"benchmark '{text}' has no argument")
    if kind == "file":
        return BenchmarkSpec(kind="external", path=rest)
    if kind == "permute":
        try:
            return BenchmarkSpec(kind="permutation", seed=int(rest))
        except ValueError:
            raise ConfigError(f"permute seed must be an integer, got '{rest}'") from None
    if kind == "class":
        column, sep, level = rest.partition("=")
        if not sep or not column:
            raise ConfigError(f"class benchmark needs COL=LEVEL, got '{rest}'")
        return BenchmarkSpec(kind="class_split", label_column=column, level=level)
    if kind == "lcg":
        parts = rest.split(",")
        if len(parts) not in (2, 3):
            raise ConfigError(f"lcg benchmark needs NAME,SEED[,ROWS], got '{rest}'")
        try:
            seed = int(parts[1])
            n_rows = int(parts[2]) if len(parts) == 3 else None
        except ValueError:
            raise ConfigError(f"lcg seed/rows must be integers, got '{rest}'") from None
        return BenchmarkSpec(kind="lcg", generator=parts[0], seed=seed, n_rows=n_rows)
    raise ConfigError(f"unknown benchmark kind '{kind}'")


# The run flags after --manifest, in help order, as (flag, the manifest JSON
# key it sets, argparse options). A key is top-level or, as in "index.k", a
# key of the "index" or "search" object. Each flag given is written into the
# manifest's JSON object, which is then built and checked as a whole.
_RUN_FLAGS = (
    ("--data", "data", dict(help="CSV file with the observations")),
    ("--label-column", "label_column", dict(help="column held out as row labels")),
    ("--benchmark", "benchmark", dict(
        type=lambda text: parse_benchmark(text).to_dict(),
        help="file:PATH | permute:SEED | class:COL=LEVEL | lcg:NAME,SEED[,ROWS]",
    )),
    ("--dim", "dim", dict(type=int, help="projection dimension (default 2)")),
    ("--k", "index.k", dict(type=float, help="integration radius multiplier")),
    ("--qmc-points", "index.n_nodes", dict(type=int, help="search-phase node count")),
    ("--qmc-refine", "index.n_nodes_refine", dict(type=int, help="refinement node count")),
    ("--restarts", "search.restarts", dict(type=int, help="number of random restarts")),
    ("--iterations", "search.max_iterations",
     dict(type=int, help="optimizer iterations per restart")),
    ("--optimizer", "search.optimizer", dict(choices=("anneal", "geodesic"))),
    ("--seed", "search.rng_seed", dict(type=int, help="base seed; restart r uses seed + r")),
    ("--standardize", "standardize", dict(
        action="store_true", default=None, help="center and scale each column before searching"
    )),
    ("--out", "out_dir", dict(help="output directory")),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="benchpursuit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="search projections of data against a benchmark")
    p_run.add_argument("--manifest", help="JSON manifest; flags override its fields")
    for flag, _, options in _RUN_FLAGS:
        p_run.add_argument(flag, **options)

    p_filter = sub.add_parser("filter", help="write a row-filtered copy of a dataset")
    p_filter.add_argument("--data", required=True)
    p_filter.add_argument("--label-column", help="column holding the labels to match")
    p_filter.add_argument("--labels", help="comma-separated label values")
    p_filter.add_argument("--index-file", help="file with one 0-based row index per line")
    p_filter.add_argument("--mode", choices=["keep", "remove"], default="remove")
    p_filter.add_argument("--out", required=True, help="output CSV path")

    p_split = sub.add_parser(
        "split", help="split a solution frame by row norm and project each part"
    )
    p_split.add_argument("--report", required=True, help="report.json of a finished run")
    p_split.add_argument("--solution", type=int, default=0, help="solution rank (0 = best)")
    p_split.add_argument("--threshold", type=float, help="row-norm cut (default sqrt(d/p))")
    return parser


def _manifest_from_args(args) -> RunManifest:
    if args.manifest:
        raw = RunManifest.load(args.manifest).to_dict()
    else:
        for flag in ("--data", "--benchmark", "--out"):
            if getattr(args, flag[2:]) is None:
                raise ConfigError(f"{flag} is required without --manifest")
        raw = {}
    for flag, key, _ in _RUN_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            section, _, name = key.rpartition(".")
            (raw.setdefault(section, {}) if section else raw)[name] = value
    return RunManifest.from_dict(raw)


def _cmd_run(args) -> int:
    manifest = _manifest_from_args(args)
    report = run(manifest)
    print(f"wrote {manifest.out_dir}/report.json "
          f"({report.restarts_completed}/{report.restarts_requested} restarts)")
    header = f"{'rank':>4} {'restart':>7} {'search':>12} {'refined':>12}  note"
    print(header)
    for rank, sol in enumerate(report.solutions):
        refined = float(sol.refined_index) if sol.refined_index is not None else float("nan")
        note = f"duplicate of restart {sol.duplicate_of}" if sol.duplicate_of is not None else ""
        print(
            f"{rank:>4} {sol.restart_id:>7} {float(sol.search_index):>12.6g} "
            f"{refined:>12.6g}  {note}"
        )
    if report.degenerate:
        print("degenerate run: every solution scored exactly zero")
    if report.nonconverged:
        print("warning: spatial median did not converge for at least one solution",
              file=sys.stderr)
        return 3
    return 0


def _cmd_filter(args) -> int:
    if (args.labels is None) == (args.index_file is None):
        raise ConfigError("give exactly one of --labels or --index-file")
    data = ingest_csv(args.data, args.label_column)
    if args.labels is not None:
        selection = {"labels": [s for s in args.labels.split(",") if s != ""]}
    else:
        with open(args.index_file, encoding="utf-8-sig") as fh:
            try:
                indices = [int(line) for line in fh if line.strip()]
            except ValueError as err:
                raise ConfigError(f"bad index file {args.index_file}: {err}") from err
        selection = {"indices": indices}
    reduced = filter_rows(data, mode=args.mode, **selection)
    write_csv(reduced, args.out)
    print(f"wrote {args.out} ({reduced.n} of {data.n} rows kept)")
    return 0


def _cmd_split(args) -> int:
    report = relocate(SolutionReport.load(args.report), args.report)
    result = split_and_project(report, args.solution, threshold=args.threshold)
    print(
        f"solution {args.solution}: threshold {result.threshold:.6g}, "
        f"{len(result.high_rows)} high-norm rows, {len(result.low_rows)} low-norm rows"
    )
    for name in sorted(result.files):
        print(f"  {result.files[name]}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "filter":
            return _cmd_filter(args)
        return _cmd_split(args)
    except PipelineError as err:
        print(f"error in {err}", file=sys.stderr)
        cause = err.cause
        return 2 if isinstance(cause, (DataError, OSError)) else 1
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
