"""Command-line interface for compressing, persisting and querying repositories.

Five subcommands cover the build/serve workflow end to end:

``compress``
    Load a repository (Porto CSV, a GeoLife ``.plt`` directory, or a built-in
    synthetic workload), build the PPQ-trajectory summary and print the
    summary statistics (codebook size, compression ratio, MAE).

``save``
    Fit a repository and serialize the fitted model -- summary, codebook,
    reconstructions and index -- to a versioned artifact file (the build
    half of build-once/serve-many).

``load``
    Restore a saved artifact into a query-ready model and print what it
    contains (checksums are verified on load).

``info``
    Describe an artifact without loading it: format version, per-section
    sizes, checksum status and the stored configuration.

``query``
    Answer spatio-temporal queries -- a single STRQ/TPQ given by
    ``--x/--y/--t`` or a whole batch workload file (``--workload``) --
    against either a freshly fitted repository (dataset flags) or a saved
    artifact (``--model``), without refitting.

``chaos``
    Fault-injection self-test: answer a workload once cleanly, then again
    on a fresh engine with deterministic faults injected at the chosen
    points, and verify that degraded results are identical to the clean
    ones.  The seed is always echoed so any failing run is reproducible.

Failures map to distinct exit codes so scripts can react without parsing
stderr: ``2`` usage / unreadable files, ``3`` artifact errors (missing,
malformed, corrupt), ``4`` invalid workload files, ``5`` query failures
(including a chaos run that was not equivalent).

Examples
--------
::

    python -m repro compress --synthetic porto --trajectories 100
    python -m repro save --synthetic porto --trajectories 100 --output model.ppq
    python -m repro info model.ppq
    python -m repro load --no-strict model.ppq
    python -m repro query --model model.ppq --x -8.62 --y 41.16 --t 20 --length 10
    python -m repro query --model model.ppq --workload workload.json
    python -m repro chaos --synthetic porto --trajectories 50 --fault-points index.cell_decode
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from repro.core.config import CQCConfig, IndexConfig, PPQConfig, PartitionCriterion
from repro.core.pipeline import PPQTrajectory
from repro.data.loaders import load_plt_directory, load_porto_csv
from repro.data.synthetic import generate_geolife_like, generate_porto_like
from repro.metrics.accuracy import mean_absolute_error
from repro.queries.batch import QuerySpec, Workload, WorkloadError, load_workload
from repro.queries.engine import QueryEngine
from repro.queries.exact import ExactQueryResult
from repro.queries.strq import STRQResult
from repro.queries.tpq import TPQResult
from repro.reliability import (
    INJECTION_POINTS,
    FaultPlan,
    QueryError,
    RetryPolicy,
    inject_faults,
)
from repro.storage import ArtifactError, inspect_model

#: Exit codes; distinct so scripts can branch on the failure class.
#: 2 doubles as argparse's own usage-error code.
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ARTIFACT = 3
EXIT_WORKLOAD = 4
EXIT_QUERY = 5


class _ReproArgumentParser(argparse.ArgumentParser):
    """Argument parser with cross-argument validation for ``query``.

    ``--x/--y/--t`` and ``--workload`` are alternative ways to specify the
    queries, and ``--model`` replaces the dataset flags; requiring exactly
    one of each pair cannot be expressed with plain argparse groups, so the
    checks run after parsing (still raising the usual ``SystemExit`` with a
    usage message).
    """

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        parsed = super().parse_args(args, namespace)
        command = getattr(parsed, "command", None)
        if command not in ("query", "chaos"):
            return parsed
        has_dataset = bool(parsed.porto_csv or parsed.geolife_dir or parsed.synthetic)
        if getattr(parsed, "model", None):
            if has_dataset:
                self.error("--model replaces the dataset flags; give one or the other")
        elif not has_dataset:
            self.error(f"{command} needs a dataset source "
                       "(--porto-csv/--geolife-dir/--synthetic) or --model")
        if command == "query":
            if getattr(parsed, "jobs", 1) < 1:
                self.error("--jobs must be >= 1")
            if parsed.jobs > 1 and not parsed.workload:
                self.error("--jobs applies to --workload execution; give a workload file")
            if not getattr(parsed, "workload", None):
                missing = [flag for flag, value in
                           (("--x", parsed.x), ("--y", parsed.y), ("--t", parsed.t))
                           if value is None]
                if missing:
                    self.error(f"query needs either --workload or {', '.join(missing)}")
        return parsed


def _finite_float(text: str) -> float:
    """``float`` for argparse, refusing ``nan`` and ``inf`` (usage error)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = _ReproArgumentParser(
        prog="repro",
        description="PPQ-trajectory: compress and query large trajectory repositories",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compress = subparsers.add_parser("compress", help="build a summary and report statistics")
    _add_dataset_arguments(compress)
    _add_quantizer_arguments(compress)

    save = subparsers.add_parser("save", help="fit a model and save it as an artifact")
    _add_dataset_arguments(save)
    _add_quantizer_arguments(save)
    save.add_argument("--output", "-o", required=True,
                      help="destination artifact file (conventionally *.ppq)")
    save.add_argument("--no-raw", action="store_true",
                      help="omit the raw trajectories (smaller artifact, "
                           "but exact queries stop working after load)")

    load = subparsers.add_parser("load", help="load an artifact and report what it serves")
    load.add_argument("artifact", help="artifact file written by 'repro save'")
    load.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                      help="--no-strict salvages corrupt/truncated sections by "
                           "rebuilding what is derivable (default: strict)")

    info = subparsers.add_parser("info", help="describe an artifact without loading it")
    info.add_argument("artifact", help="artifact file written by 'repro save'")

    query = subparsers.add_parser("query", help="run spatio-temporal queries against a "
                                                "fitted repository or a saved artifact")
    _add_dataset_arguments(query, required=False)
    _add_quantizer_arguments(query)
    query.add_argument("--model", default=None,
                       help="answer against this saved artifact instead of "
                            "fitting a dataset")
    query.add_argument("--x", type=_finite_float, default=None, help="query x (longitude)")
    query.add_argument("--y", type=_finite_float, default=None, help="query y (latitude)")
    query.add_argument("--t", type=int, default=None, help="query timestamp")
    query.add_argument("--length", type=int, default=0,
                       help="path length for a TPQ (0 = range query only)")
    query.add_argument("--workload", default=None,
                       help="JSON workload file of mixed strq/tpq/exact queries, "
                            "answered through the batched query engine")
    query.add_argument("--jobs", type=int, default=1,
                       help="worker processes for --workload execution; each "
                            "worker loads the model artifact once and serves a "
                            "share of the queries (default 1 = in-process)")
    query.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                       help="with --model: --no-strict salvages corrupt sections "
                            "instead of refusing to load (default: strict)")

    chaos = subparsers.add_parser(
        "chaos",
        help="inject deterministic faults and verify degraded answers match clean ones")
    _add_dataset_arguments(chaos, required=False)
    _add_quantizer_arguments(chaos)
    chaos.add_argument("--model", default=None,
                       help="run against this saved artifact instead of fitting a dataset")
    chaos.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                       help="with --model: salvage corrupt sections when --no-strict")
    chaos.add_argument("--workload", default=None,
                       help="JSON workload file; default is a synthesized STRQ/TPQ mix")
    chaos.add_argument("--queries", type=int, default=25,
                       help="number of synthesized queries when no --workload (default 25)")
    chaos.add_argument("--fault-points", nargs="+", default=["index.cell_decode"],
                       choices=list(INJECTION_POINTS), metavar="POINT",
                       help="injection points to arm (default: index.cell_decode; "
                            f"choices: {', '.join(INJECTION_POINTS)})")
    chaos.add_argument("--probability", type=float, default=1.0,
                       help="per-check fault probability (default 1.0)")
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the fault plan RNG (echoed for reproducibility)")
    chaos.add_argument("--mode", choices=["degrade", "fail-fast"], default="degrade",
                       help="degrade = quarantine and repair; fail-fast = surface errors")
    return parser


def _add_dataset_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    source = parser.add_mutually_exclusive_group(required=required)
    source.add_argument("--porto-csv", help="path to a Porto taxi challenge CSV")
    source.add_argument("--geolife-dir", help="path to a GeoLife directory of .plt files")
    source.add_argument("--synthetic", choices=["porto", "geolife"],
                        help="use a built-in synthetic workload")
    parser.add_argument("--trajectories", type=int, default=100,
                        help="number of trajectories to load / generate")
    parser.add_argument("--seed", type=int, default=13, help="seed for synthetic workloads")


def _add_quantizer_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", choices=["ppq-a", "ppq-s", "epq"], default="ppq-a",
                        help="quantizer variant (default: ppq-a)")
    parser.add_argument("--epsilon1", type=float, default=0.001,
                        help="error bound in coordinate units (default 0.001 ~= 111 m)")
    parser.add_argument("--grid-meters", type=float, default=50.0,
                        help="CQC grid size in metres (default 50)")
    parser.add_argument("--no-cqc", action="store_true", help="disable CQC (basic variant)")


def load_dataset(args: argparse.Namespace):
    """Load the dataset selected by the CLI arguments."""
    if args.porto_csv:
        return load_porto_csv(args.porto_csv, max_trajectories=args.trajectories)
    if args.geolife_dir:
        return load_plt_directory(args.geolife_dir, max_trajectories=args.trajectories)
    if args.synthetic == "geolife":
        return generate_geolife_like(num_trajectories=args.trajectories, seed=args.seed)
    return generate_porto_like(num_trajectories=args.trajectories, seed=args.seed)


def build_system(args: argparse.Namespace) -> PPQTrajectory:
    """Build the PPQ-trajectory system selected by the CLI arguments."""
    if args.variant == "ppq-a":
        criterion, eps_p, variant = PartitionCriterion.AUTOCORRELATION, 0.01, "ppq"
    elif args.variant == "ppq-s":
        criterion, eps_p, variant = PartitionCriterion.SPATIAL, 0.1, "ppq"
    else:
        criterion, eps_p, variant = PartitionCriterion.SPATIAL, 0.1, "epq"
    config = PPQConfig(epsilon1=args.epsilon1, epsilon_p=eps_p, criterion=criterion)
    cqc = CQCConfig.for_grid_meters(args.grid_meters, enabled=not args.no_cqc)
    return PPQTrajectory(ppq_config=config, cqc_config=cqc,
                         index_config=IndexConfig(), variant=variant)


def run_compress(args: argparse.Namespace, out=None) -> int:
    """Handle the ``compress`` subcommand."""
    out = out if out is not None else sys.stdout
    dataset = load_dataset(args)
    system = build_system(args)
    system.fit(dataset, build_index=False)
    mae = mean_absolute_error(system.summary, dataset)
    print(f"trajectories        : {len(dataset)}", file=out)
    print(f"points              : {dataset.num_points}", file=out)
    print(f"codewords           : {system.num_codewords()}", file=out)
    print(f"compression ratio   : {system.compression_ratio():.2f}", file=out)
    print(f"summary MAE (m)     : {mae:.1f}", file=out)
    print(f"build time (s)      : {system.quantizer.timings['total']:.2f}", file=out)
    return 0


def run_save(args: argparse.Namespace, out=None) -> int:
    """Handle the ``save`` subcommand: fit, serialize, report."""
    out = out if out is not None else sys.stdout
    dataset = load_dataset(args)
    system = build_system(args)
    system.fit(dataset)
    path = system.save(args.output, include_raw=not args.no_raw)
    info = inspect_model(path)
    print(f"artifact            : {path}", file=out)
    print(f"size (bytes)        : {info.file_size}", file=out)
    print(f"trajectories        : {len(dataset)}", file=out)
    print(f"points              : {dataset.num_points}", file=out)
    print(f"codewords           : {system.num_codewords()}", file=out)
    print(f"index periods       : {system.engine.index.num_periods}", file=out)
    print(f"sections            : {', '.join(s.name for s in info.sections)}", file=out)
    return 0


def run_load(args: argparse.Namespace, out=None) -> int:
    """Handle the ``load`` subcommand: restore an artifact, report readiness."""
    out = out if out is not None else sys.stdout
    try:
        system = PPQTrajectory.load(args.artifact, strict=args.strict)
    except OSError as exc:
        print(f"error: cannot read artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArtifactError as exc:
        print(f"error: artifact {args.artifact!r}: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    summary = system.summary
    timestamps = summary.timestamps
    span = f"{timestamps[0]}..{timestamps[-1]}" if timestamps else "none"
    print(f"artifact            : {args.artifact}", file=out)
    print(f"variant             : {system.variant}", file=out)
    print(f"points              : {summary.num_points}", file=out)
    print(f"timestamps          : {len(timestamps)} ({span})", file=out)
    print(f"codewords           : {summary.num_codewords}", file=out)
    print(f"index periods       : {system.engine.index.num_periods}", file=out)
    exact = "yes" if system.engine.raw_dataset is not None else "no"
    print(f"exact queries       : {exact}", file=out)
    report = system.load_report
    if report is not None and not report.clean:
        print("salvage report      :", file=out)
        for line in report.lines():
            print(f"  {line}", file=out)
        print("checksums           : salvaged", file=out)
    else:
        print("checksums           : ok", file=out)
    return 0


def run_info(args: argparse.Namespace, out=None) -> int:
    """Handle the ``info`` subcommand: describe an artifact without loading."""
    out = out if out is not None else sys.stdout
    try:
        info = inspect_model(args.artifact)
    except OSError as exc:
        print(f"error: cannot read artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArtifactError as exc:
        print(f"error: artifact {args.artifact!r}: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    print(f"artifact            : {info.path}", file=out)
    print(f"format version      : {info.format_version}", file=out)
    print(f"size (bytes)        : {info.file_size}", file=out)
    if info.config is not None:
        ppq = info.config["ppq"]
        print(f"variant             : {info.config['variant']}", file=out)
        print(f"epsilon1            : {ppq['epsilon1']}", file=out)
        print(f"criterion           : {ppq['criterion']}", file=out)
        print(f"cqc enabled         : {info.config['cqc']['enabled']}", file=out)
    print("sections            :", file=out)
    for section in info.sections:
        status = "ok" if section.crc_ok else "CORRUPT"
        print(f"  {section.name:<8} offset={section.offset:<10} "
              f"bytes={section.length:<10} crc={status}", file=out)
    print(f"checksums           : {'ok' if info.checksums_ok else 'FAILED'}", file=out)
    return 0 if info.checksums_ok else 1


def run_query(args: argparse.Namespace, out=None) -> int:
    """Handle the ``query`` subcommand."""
    out = out if out is not None else sys.stdout
    system = _obtain_system(args)
    if isinstance(system, int):
        return system
    if getattr(args, "workload", None):
        return _run_workload(system, args.workload, out, jobs=args.jobs)
    try:
        strq = system.strq(args.x, args.y, args.t)
        print(f"STRQ ({args.x}, {args.y}, t={args.t}) -> {len(strq.candidates)} candidate(s): "
              f"{strq.candidates}", file=out)
        if args.length > 0:
            tpq = system.tpq(args.x, args.y, args.t, length=args.length)
            for traj_id, path in tpq.paths.items():
                last = path[-1]
                print(f"  trajectory {traj_id}: {len(path)} reconstructed points, "
                      f"ends at ({last[0]:.5f}, {last[1]:.5f})", file=out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit codes
        print(f"error: query failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_QUERY
    return 0


def _obtain_system(args: argparse.Namespace) -> PPQTrajectory | int:
    """Load ``--model`` or fit the selected dataset; int = error exit code."""
    if args.model:
        try:
            return PPQTrajectory.load(args.model, strict=args.strict)
        except OSError as exc:
            print(f"error: cannot read artifact: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ArtifactError as exc:
            print(f"error: artifact {args.model!r}: {exc}", file=sys.stderr)
            return EXIT_ARTIFACT
    dataset = load_dataset(args)
    system = build_system(args)
    system.fit(dataset)
    return system


def _run_workload(system: PPQTrajectory, path: str, out, jobs: int = 1) -> int:
    """Execute a JSON workload file through the batched query engine.

    With ``jobs > 1`` the workload is sharded across worker processes (see
    :mod:`repro.parallel`); each worker loads the model artifact once, and
    results are identical to ``jobs=1``.
    """
    try:
        workload = load_workload(path)
    except OSError as exc:
        print(f"error: cannot read workload file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WorkloadError, ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid workload file {path!r}: {exc}", file=sys.stderr)
        return EXIT_WORKLOAD
    if not len(workload):
        print("workload            : 0 queries (empty)", file=out)
        print("nothing to do", file=out)
        return EXIT_OK
    cache_before = system.summary.slice_cache.stats()
    start = time.perf_counter()
    results = system.run_batch(workload, isolate=True, jobs=jobs)
    elapsed = time.perf_counter() - start
    counts = workload.counts()
    described = ", ".join(f"{count} {kind}" for kind, count in counts.items() if count)
    print(f"workload            : {len(workload)} queries ({described or 'empty'})", file=out)
    if jobs > 1:
        print(f"jobs                : {jobs} worker processes", file=out)
    print(f"batch time (s)      : {elapsed:.3f}", file=out)
    if elapsed > 0:
        print(f"throughput (q/s)    : {len(workload) / elapsed:.0f}", file=out)
    total_candidates = total_paths = total_matches = 0
    for result in results:
        if isinstance(result, STRQResult):
            total_candidates += len(result.candidates)
        elif isinstance(result, TPQResult):
            total_paths += len(result.paths)
        elif isinstance(result, ExactQueryResult):
            total_matches += len(result.matches)
    if counts["strq"]:
        print(f"STRQ candidates     : {total_candidates}", file=out)
    if counts["tpq"]:
        print(f"TPQ paths           : {total_paths}", file=out)
    if counts["exact"]:
        print(f"exact matches       : {total_matches}", file=out)
    if jobs == 1:
        # Report counter deltas so the line describes this workload, not the
        # slice reconstructions done while the index was built.  With jobs > 1
        # reconstruction happens in worker-process caches, so the parent's
        # counters say nothing about the workload and the line is omitted.
        cache = system.summary.slice_cache.stats()
        print(f"slice cache         : {cache['hits'] - cache_before['hits']} hits / "
              f"{cache['misses'] - cache_before['misses']} misses "
              f"({cache['evictions'] - cache_before['evictions']} evictions)", file=out)
    errors = [r for r in results if isinstance(r, QueryError)]
    if errors:
        for err in errors:
            print(f"error: query #{err.index} ({err.kind}) failed: "
                  f"{err.error_type}: {err.message}", file=sys.stderr)
        print(f"error: {len(errors)} of {len(workload)} queries failed", file=sys.stderr)
        return EXIT_QUERY
    return 0


def run_chaos(args: argparse.Namespace, out=None) -> int:
    """Handle the ``chaos`` subcommand: clean pass vs. fault-injected pass.

    The workload is answered once on the model's own engine with no faults
    armed, then again on a *fresh* engine (fresh index and caches) while the
    requested fault plan is active.  In ``degrade`` mode the second pass must
    produce byte-identical results -- that is the serving guarantee the
    reliability layer makes -- so any mismatch (or surviving query error)
    exits with :data:`EXIT_QUERY`.
    """
    out = out if out is not None else sys.stdout
    system = _obtain_system(args)
    if isinstance(system, int):
        return system
    if args.workload:
        try:
            workload = load_workload(args.workload)
        except OSError as exc:
            print(f"error: cannot read workload file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (WorkloadError, ValueError, KeyError, TypeError) as exc:
            print(f"error: invalid workload file {args.workload!r}: {exc}", file=sys.stderr)
            return EXIT_WORKLOAD
    else:
        workload = _chaos_workload(system, max(1, args.queries))
    if workload.counts()["exact"] and system.engine.raw_dataset is None:
        print("error: workload contains exact queries but the model has no raw data",
              file=sys.stderr)
        return EXIT_WORKLOAD

    clean = system.engine.run_batch(workload)
    # The faulted pass runs on a fresh engine so no decoded-posting or
    # reconstruction cache can mask the injected faults.  Built *before*
    # faults are armed: chaos targets serving, not index construction.
    engine = QueryEngine(
        system.summary, system.engine.index_config,
        raw_dataset=system.engine.raw_dataset,
        on_fault="degrade" if args.mode == "degrade" else "raise",
        retry_policy=RetryPolicy(max_retries=2, backoff=0.0),
    )
    plan = FaultPlan.from_spec(args.fault_points, probability=args.probability,
                               seed=args.fault_seed)
    with inject_faults(plan) as injector:
        faulted = engine.run_batch(workload, isolate=True)

    errors = [r for r in faulted if isinstance(r, QueryError)]
    mismatches = sum(
        1 for before, after in zip(clean, faulted)
        if isinstance(after, QueryError) or not _results_equal(before, after)
    )
    fired = ", ".join(f"{point}={count}"
                      for point, count in sorted(injector.fired.items())) or "none"
    print(f"fault seed          : {plan.seed}", file=out)
    print(f"fault points        : {', '.join(args.fault_points)}", file=out)
    print(f"mode                : {args.mode}", file=out)
    print(f"queries             : {len(workload)}", file=out)
    print(f"faults fired        : {injector.total_fired} ({fired})", file=out)
    print(f"cells quarantined   : {len(engine.quarantined)}", file=out)
    print(f"query errors        : {len(errors)}", file=out)
    verdict = "ok (degraded results identical to clean)" if mismatches == 0 else \
        f"FAILED ({mismatches} of {len(workload)} queries differ)"
    print(f"equivalence         : {verdict}", file=out)
    if mismatches == 0:
        return 0
    for err in errors:
        print(f"error: query #{err.index} ({err.kind}) failed: "
              f"{err.error_type}: {err.message}", file=sys.stderr)
    print(f"error: chaos run not equivalent (seed {plan.seed})", file=sys.stderr)
    return EXIT_QUERY


def _chaos_workload(system: PPQTrajectory, n: int) -> Workload:
    """Synthesize a deterministic STRQ/TPQ mix probing real summary points.

    Probes are taken from reconstructed slices spread across the time span so
    the queries hit populated index cells (a chaos run against empty space
    would exercise nothing).
    """
    summary = system.summary
    timestamps = summary.timestamps
    if not timestamps:
        raise ValueError("model has no timestamps to query")
    probes: list[tuple[float, float, int]] = []
    stride = max(1, len(timestamps) // 8)
    for t in timestamps[::stride]:
        for tid, point in sorted(summary.reconstruct_slice(int(t)).items())[:3]:
            probes.append((float(point[0]), float(point[1]), int(t)))
    specs = []
    for i in range(n):
        x, y, t = probes[i % len(probes)]
        if i % 2:
            specs.append(QuerySpec(kind="tpq", x=x, y=y, t=t, length=5))
        else:
            specs.append(QuerySpec(kind="strq", x=x, y=y, t=t))
    return Workload(queries=specs)


def _results_equal(a, b) -> bool:
    """True when two query results are identical (exact array equality)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, STRQResult):
        return (sorted(a.candidates) == sorted(b.candidates)
                and sorted(a.reconstructed) == sorted(b.reconstructed)
                and all(np.array_equal(a.reconstructed[k], b.reconstructed[k])
                        for k in a.reconstructed))
    if isinstance(a, TPQResult):
        return (sorted(a.paths) == sorted(b.paths)
                and all(np.array_equal(a.paths[k], b.paths[k]) for k in a.paths))
    if isinstance(a, ExactQueryResult):
        return (sorted(a.candidates) == sorted(b.candidates)
                and sorted(a.matches) == sorted(b.matches))
    return a == b


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compress":
        return run_compress(args)
    if args.command == "save":
        return run_save(args)
    if args.command == "load":
        return run_load(args)
    if args.command == "info":
        return run_info(args)
    if args.command == "chaos":
        return run_chaos(args)
    return run_query(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
