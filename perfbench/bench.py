"""The benchmark's measurement procedure (imported once ``src`` is importable).

One run = set-up, then rounds.  Set-up generates the dataset (repeated five
times; ``setup_s`` is the median), the probe lists and their ground truth.
Each round then drives the program the way a user does, one closed-loop
client in this process:

1. build -- ``PPQTrajectory().fit(dataset)`` and ``save`` (timed, ``build_s``);
2. loads -- three strict ``load_model`` calls with CRC verification (timed,
   ``load_s``), each fresh model answering the first probe batch with
   ``run_batch`` (timed, ``first_batch_s``);
3. warm batches -- the last model answers the other batches (``batch_qps``);
4. point queries -- one untimed pass over the scalar probe list, then a
   timed pass, one ``strq``/``tpq``/``exact`` call at a time.

Every answer, and every point the loaded model reconstructs, is checked
against the raw data outside the timed intervals.  An untraced run makes a
number of rounds fixed by ``--seconds`` (:func:`rounds_for`); the traced run
makes one untraced and one traced round of identical work.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.storage.io as storage_io
from repro import PPQTrajectory
from repro.reliability.degrade import QueryError

import tracing
from oracle import METERS_PER_DEGREE, Oracle
from pace import LongStep, Pacer
from workload import BATCH_SIZE, RawPoints, make_dataset, make_probes

SETUP_REPEATS = 5
MIN_ROUNDS = 3
MAX_ROUNDS = 12
ROUND_SECONDS = 12.0  # length of one round on a 2-CPU x86 host
LOADS_PER_ROUND = 3
SCALAR_CHUNK = 500  # single queries timed between two pace samples
CHUNK_STAGGER = SCALAR_CHUNK // MIN_ROUNDS  # shift of the chunk boundaries per round
RAW_BYTES_PER_POINT = 16  # two float64 coordinates

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "load_s": "s",
    "artifact_bytes_per_raw_byte": "ratio",
    "model_bytes_per_point": "B",
    "summary_ratio": "ratio",
    "recon_mae_m": "m",
    "strq_p50_ms": "ms",
    "strq_p99_ms": "ms",
    "tpq_p50_ms": "ms",
    "tpq_p99_ms": "ms",
    "exact_p50_ms": "ms",
    "exact_p99_ms": "ms",
    "first_batch_s": "s",
    "batch_qps": "1/s",
}

SECTIONS = ("CONFIG", "CODEBOOK", "RECORDS", "RECON", "INDEX", "RAWDATA")
PER_LAYER_UNITS = {
    "core.summarize_s": "s",
    "core.partition_s": "s",
    "core.predict_s": "s",
    "core.quantize_s": "s",
    "core.cqc_encode_s": "s",
    "core.codewords": "count",
    "core.summary_bytes": "B",
    "index.build_s": "s",
    "index.periods": "count",
    "index.rebuilds": "count",
    "index.insertions": "count",
    "index.accounted_bytes": "B",
    "index.lookup_s": "s",
    "index.candidates_per_query": "count",
    "index.useful_ratio": "ratio",
    "index.posting_decodes": "count",
    "index.posting_decode_s": "s",
    "index.table_s": "s",
    "summary.reconstruct_calls": "count",
    "summary.reconstruct_s": "s",
    "summary.slice_hit_ratio": "ratio",
    "summary.slice_evictions": "count",
    "cqc.decode_calls": "count",
    "storage.save_s": "s",
    "storage.load_s": "s",
    **{f"storage.section_bytes.{name}": "B" for name in SECTIONS},
    "storage.model_bytes": "B",
    "queries.strq_s": "s",
    "queries.tpq_s": "s",
    "queries.exact_s": "s",
    "queries.verify_s": "s",
    "queries.raw_visited_ratio": "ratio",
    "reliability.quarantined": "count",
    "reliability.query_errors": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Tally:
    """Operations attempted and failed (exceptions, ``QueryError``s, wrong answers)."""

    attempted: int = 0
    failed: int = 0
    query_errors: int = 0
    reported: bool = False

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def report(self, what: str, exc: BaseException | None = None) -> None:
        """Describe the first failure on stderr; later ones are only counted."""
        if not self.reported:
            self.reported = True
            print(f"first failure: {what}", file=sys.stderr)
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)


@dataclass
class Context:
    """The inputs of one run, generated before anything is timed."""

    dataset: object
    raw: RawPoints
    oracle: Oracle
    batches: list
    batch_truth: list
    scalar: list
    scalar_truth: list
    artifact: Path


@dataclass
class Round:
    """Timings and objects of one round.

    Each timing is a list with one entry per repeat inside the round:
    ``load_s[i]`` and ``first_batch_s[i]`` belong to the ``i``-th fresh load,
    ``warm_batch_s[i]`` times ``batches[i + 1]`` and ``scalar_s[i]`` times
    ``scalar[i]``, so every operation's repeats line up across rounds.
    ``scale[name]`` holds the :class:`~pace.Pacer` factor of each entry of a
    short step; ``pace`` keeps the reference samples taken between steps.
    Builds and loads are long steps, paced from inside (:class:`~pace.LongStep`).
    """

    build: list[LongStep] = field(default_factory=list)
    load: list[LongStep] = field(default_factory=list)
    first_batch_s: list[float] = field(default_factory=list)
    warm_batch_s: list[float] = field(default_factory=list)
    scalar_s: list[float] = field(default_factory=list)
    scale: dict[str, list[float]] = field(default_factory=dict)
    pace: list[float] = field(default_factory=list)
    recon_mae_m: float = float("nan")
    cache_delta: dict[str, int] = field(default_factory=dict)
    visited: list[float] = field(default_factory=list)
    system: object = None
    model: object = None

    def timed(self, name: str, seconds: float, factor: float) -> None:
        getattr(self, name).append(seconds)
        self.scale.setdefault(name, []).append(factor)

    @property
    def paced_serve_s(self) -> float:
        """The round's timed batches and point queries, at reference speed."""
        return sum(float(np.dot(getattr(self, name), factor))
                   for name, factor in self.scale.items())


def setup(workload: str, seed: int, workdir: Path) -> tuple[Context, float]:
    """Generate the inputs; returns them and the median paced generation time."""
    times = []
    pacer = Pacer()
    for _ in range(SETUP_REPEATS):
        with pacer.long_step() as step:
            dataset = make_dataset()
        times.append(step.paced_s)
    raw = RawPoints.from_dataset(dataset)
    probes = make_probes(raw, workload, seed)
    defaults = PPQTrajectory()
    radius = np.sqrt(2.0) / 2.0 * defaults.cqc_config.grid_size
    oracle = Oracle.from_dataset(dataset, raw, defaults.index_config.grid_cell, radius)
    context = Context(
        dataset=dataset, raw=raw, oracle=oracle,
        batches=probes.batches,
        batch_truth=[[oracle.expect(spec) for spec in batch] for batch in probes.batches],
        scalar=probes.scalar,
        scalar_truth=[oracle.expect(spec) for spec in probes.scalar],
        artifact=workdir / "model.ppq",
    )
    return context, statistics.median(times)


@contextmanager
def traced(tracer: tracing.Tracer | None):
    patched = tracer.install() if tracer is not None else None
    try:
        yield
    finally:
        if patched is not None:
            tracer.uninstall(patched)


def _scalar_call(model, spec):
    if spec.kind == "strq":
        return model.strq(spec.x, spec.y, spec.t)
    if spec.kind == "tpq":
        return model.tpq(spec.x, spec.y, spec.t, spec.length)
    return model.exact(spec.x, spec.y, spec.t)


def _check(ctx: Context, tally: Tally, rnd: Round, spec, expected, answer) -> None:
    if isinstance(answer, BaseException):
        tally.report(f"{spec} raised", answer)
        tally.record(False)
        return
    if isinstance(answer, QueryError):
        tally.report(f"{spec} returned {answer}")
        tally.query_errors += 1
        tally.record(False)
        return
    if spec.kind == "exact":
        rnd.visited.append(answer.visited_ratio)
    ok = ctx.oracle.check(spec, expected, answer)
    if not ok:
        tally.report(f"{spec} disagrees with the oracle: expected {expected.members}, "
                     f"got {answer}")
    tally.record(ok)


def _run_batch(ctx: Context, tally: Tally, rnd: Round, model, position: int) -> float:
    """Answer and check ``batches[position]``; returns the time ``run_batch`` took."""
    batch = ctx.batches[position]
    start = time.perf_counter()
    try:
        answers = model.run_batch(batch, isolate=True)
    except Exception as exc:  # noqa: BLE001 - counted as failed queries
        answers = [exc] * len(batch)
    elapsed = time.perf_counter() - start
    for spec, expected, answer in zip(batch, ctx.batch_truth[position], answers):
        _check(ctx, tally, rnd, spec, expected, answer)
    return elapsed


def run_round(ctx: Context, tally: Tally, tracer: tracing.Tracer | None = None,
              loads: int = LOADS_PER_ROUND, index: int = 0) -> Round:
    """One build -> loads -> batches -> point-queries round; see the module doc.

    The artifact is loaded ``loads`` times, each fresh model answering the
    first batch; the last model then answers the warm batches and the
    point queries.  Only the program's calls run inside ``traced``; checks
    and pace samples stay outside it, and a traced round takes no samples
    inside its builds and loads.

    The first queries after a pace sample run with the caches the
    reference work left cold.  Round ``index`` shifts the chunk boundaries
    of the point queries by ``index * CHUNK_STAGGER``, so no query starts a
    chunk in every round and its fastest repeat is a warm one.  Without the
    shift, those queries filled the tail: the exact p99 at one seed read
    0.19 and 0.16 ms in two runs of the same code, against 0.15 and 0.15
    with it.
    """
    rnd = Round()
    clock = time.perf_counter

    gc.collect()
    pacer = Pacer()
    sampling = tracer is None
    with traced(tracer), pacer.long_step(sampling) as step:
        system = PPQTrajectory().fit(ctx.dataset)
        system.save(ctx.artifact)
    rnd.build.append(step)
    if tracer is not None:
        rnd.system = system  # the traced run reads its fit-time statistics
    del system

    for _ in range(loads):
        rnd.model = model = None
        gc.collect()
        with traced(tracer), pacer.long_step(sampling) as step:
            model = storage_io.load_model(ctx.artifact)
        rnd.load.append(step)
        rnd.model = model
        before = model.summary.slice_cache.stats()
        with traced(tracer):
            elapsed = _run_batch(ctx, tally, rnd, model, 0)
        rnd.timed("first_batch_s", elapsed, pacer.scale())

    for position in range(1, len(ctx.batches)):
        with traced(tracer):
            elapsed = _run_batch(ctx, tally, rnd, model, position)
        rnd.timed("warm_batch_s", elapsed, pacer.scale())
    after = model.summary.slice_cache.stats()
    rnd.cache_delta = {key: after[key] - before[key] for key in ("hits", "misses", "evictions")}

    errors = ctx.oracle.reconstruction_errors(model.reconstruct)
    ok = errors is not None and ctx.oracle.within_bound(errors)
    if not ok:
        tally.report("a point of the loaded model is missing or outside Lemma 3's bound")
    tally.record(ok)
    if errors is not None:
        rnd.recon_mae_m = float(errors.mean()) * METERS_PER_DEGREE

    for spec in ctx.scalar:  # untimed warm-up pass
        try:
            _scalar_call(model, spec)
        except Exception:  # noqa: BLE001 - the timed pass counts failures
            pass
    gc.collect()
    answers = []
    pacer.scale()
    shift = index * CHUNK_STAGGER % SCALAR_CHUNK
    bounds = [0, *range(shift or SCALAR_CHUNK, len(ctx.scalar), SCALAR_CHUNK), len(ctx.scalar)]
    for low, high in zip(bounds[:-1], bounds[1:]):
        chunk = ctx.scalar[low:high]
        with traced(tracer):
            for spec in chunk:
                start = clock()
                try:
                    answer = _scalar_call(model, spec)
                except Exception as exc:  # noqa: BLE001 - counted as a failed query
                    answer = exc
                rnd.scalar_s.append(clock() - start)
                answers.append(answer)
        rnd.scale.setdefault("scalar_s", []).extend([pacer.scale()] * len(chunk))
    for spec, expected, answer in zip(ctx.scalar, ctx.scalar_truth, answers):
        _check(ctx, tally, rnd, spec, expected, answer)
    rnd.pace = pacer.samples
    return rnd


def loaded_model_bytes(path: Path) -> int:
    """Bytes allocated by ``load_model`` and still held by the loaded model."""
    gc.collect()
    tracemalloc.start()
    try:
        model = storage_io.load_model(path)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del model
    return held


def _model_metrics(ctx: Context, rnd: Round) -> dict[str, float]:
    points = len(ctx.raw)
    return {
        "artifact_bytes_per_raw_byte":
            os.path.getsize(ctx.artifact) / (points * RAW_BYTES_PER_POINT),
        "model_bytes_per_point": loaded_model_bytes(ctx.artifact) / points,
        "summary_ratio": float(rnd.model.compression_ratio()),
        "recon_mae_m": rnd.recon_mae_m,
    }


def rounds_for(seconds: float) -> int:
    """Rounds an untraced run makes for a ``--seconds`` budget.

    Fixed by the budget alone, not by how fast the program is, so two
    commits take their statistics over the same number of repeats.
    """
    return max(MIN_ROUNDS, min(MAX_ROUNDS, int(seconds // ROUND_SECONDS)))


def end_to_end(ctx: Context, setup_s: float, seconds: float,
               tally: Tally) -> tuple[dict[str, float], list[Round]]:
    """Metrics of an untraced run, from paced timings (:mod:`pace`).

    Speed shifts that last a while are taken out with the reference pace
    first: a batch or a chunk of point queries is scaled by the samples
    around it; a build or a load outlasts those samples, so it is scaled by
    the median of samples taken inside it.  Which statistic of the repeats
    follows depends on how many there are and how well each is paced:

    - ``build_s`` is the fastest build.  Short interference only ever slows
      a build down, and its pace, from some 70 samples, is close to exact.
    - ``load_s`` and ``first_batch_s`` are medians over the run's fresh
      loads.  Their paces come from a handful of samples, and the fastest
      repeat mostly picked the sample that erred most (over six seeds the
      fastest load spread 0.13 of its median, the median load 0.05).
    - ``batch_qps`` sums each warm batch's fastest repeat.
    - The latency percentiles are taken over each point query's fastest
      repeat.
    """
    rounds: list[Round] = []
    for index in range(rounds_for(seconds)):
        if rounds:
            rounds[-1].model = None  # one loaded model alive at a time
        rounds.append(run_round(ctx, tally, index=index))

    def paced(name: str) -> np.ndarray:
        """Paced timings ``name`` of every round, one row per round."""
        return np.array([np.multiply(getattr(r, name), r.scale[name]) for r in rounds])

    warm = paced("warm_batch_s").min(axis=0)
    metrics = {
        "setup_s": setup_s,
        "build_s": min(step.paced_s for r in rounds for step in r.build),
        "load_s": statistics.median(step.paced_s for r in rounds for step in r.load),
        **_model_metrics(ctx, rounds[-1]),
        "first_batch_s": float(np.median(paced("first_batch_s"))),
        "batch_qps": BATCH_SIZE * len(warm) / float(warm.sum()),
    }
    scalar = paced("scalar_s").min(axis=0) * 1e3
    kinds = np.array([spec.kind for spec in ctx.scalar])
    for kind in ("strq", "tpq", "exact"):
        samples = scalar[kinds == kind]
        metrics[f"{kind}_p50_ms"] = float(np.percentile(samples, 50))
        metrics[f"{kind}_p99_ms"] = float(np.percentile(samples, 99))
    return metrics, rounds


def per_layer(ctx: Context, tally: Tally, trace_path: Path) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from one traced round, next to an untraced one."""
    untraced = run_round(ctx, tally, loads=1)
    untraced.model = None
    tracer = tracing.Tracer()
    serve_tally = Tally()
    rnd = run_round(ctx, serve_tally, tracer, loads=1)
    tally.attempted += serve_tally.attempted
    tally.failed += serve_tally.failed
    tracer.dump(trace_path)

    spans = tracing.SpanTable(tracer.spans, tracer.roots)
    build, serve = tracing.BUILD_ROOTS, tracing.SERVE_ROOTS
    lookups = spans.mask("index.lookup", serve)
    candidates = int(spans.candidates[lookups].sum())
    members = sum(len(e.members) for truth in ctx.batch_truth for e in truth)
    members += sum(len(e.members) for e in ctx.scalar_truth)
    quantizer = rnd.system.quantizer.timings
    summary = rnd.system.summary
    tpi = rnd.system.engine.index
    cache = rnd.cache_delta
    lookups_done = cache["hits"] + cache["misses"]
    sections = {s.name: s.length for s in storage_io.inspect_model(ctx.artifact).sections}
    metrics = {
        "core.summarize_s": spans.total("core.summarize", build),
        "core.partition_s": quantizer["partitioning"],
        "core.predict_s": quantizer["prediction"],
        "core.quantize_s": quantizer["quantization"],
        "core.cqc_encode_s": quantizer["cqc"],
        "core.codewords": summary.num_codewords,
        "core.summary_bytes": summary.storage().total_bytes,
        "index.build_s": spans.total("index.build", build),
        "index.periods": tpi.num_periods,
        "index.rebuilds": tpi.stats.num_rebuilds,
        "index.insertions": tpi.stats.num_insertions,
        "index.accounted_bytes": tpi.storage_megabytes() * (1 << 20),
        "index.lookup_s": spans.self_total("index.lookup", serve),
        "index.candidates_per_query":
            candidates / max(1, int(spans.queries[lookups].sum())),
        "index.useful_ratio": members / max(1, candidates),
        "index.posting_decodes": spans.count("index.posting_decode", serve),
        "index.posting_decode_s": spans.total("index.posting_decode", serve),
        "index.table_s": spans.self_total("index.table", serve),
        "summary.reconstruct_calls": spans.count("summary.reconstruct", serve),
        "summary.reconstruct_s": spans.total("summary.reconstruct", serve),
        "summary.slice_hit_ratio": cache["hits"] / max(1, lookups_done),
        "summary.slice_evictions": cache["evictions"],
        "cqc.decode_calls": spans.count("cqc.decode", serve),
        "storage.save_s": spans.total("storage.save", build),
        "storage.load_s": spans.total("storage.load", build),
        **{f"storage.section_bytes.{name}": sections.get(name, 0) for name in SECTIONS},
        "storage.model_bytes": loaded_model_bytes(ctx.artifact),
        "queries.strq_s": spans.self_total("queries.strq", serve),
        "queries.tpq_s": spans.self_total("queries.tpq", serve),
        "queries.exact_s": spans.self_total("queries.exact", serve),
        "queries.verify_s": spans.total("queries.verify", serve),
        "queries.raw_visited_ratio": float(np.mean(rnd.visited)) if rnd.visited else 0.0,
        "reliability.quarantined": len(rnd.model.engine.quarantined),
        "reliability.query_errors": serve_tally.query_errors,
        "trace.overhead_s": rnd.paced_serve_s - untraced.paced_serve_s,
    }
    info = {"spans": len(tracer.spans), "untraced_s": untraced.paced_serve_s,
            "traced_s": rnd.paced_serve_s, "cache": cache}
    return metrics, info


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx, setup_s = setup(workload, seed, workdir)
        print(f"workload {workload} seed {seed}: {len(ctx.raw)} points, "
              f"{len(np.unique(ctx.raw.ts))} timestamps, {len(ctx.batches)} batches of "
              f"{BATCH_SIZE}, {len(ctx.scalar)} point queries per round")
        tally = Tally()
        if trace:
            trace_path = out_dir / f"trace-{workload}-seed{seed}.tsv.gz"
            metrics, info = per_layer(ctx, tally, trace_path)
            units = PER_LAYER_UNITS
            print(f"traced round: {info['spans']} spans written to {trace_path}; "
                  f"paced serving time {info['traced_s']:.3f} s traced vs "
                  f"{info['untraced_s']:.3f} s untraced; slice cache {info['cache']}")
        else:
            metrics, rounds = end_to_end(ctx, setup_s, seconds, tally)
            units = END_TO_END_UNITS
            print(f"{len(rounds)} rounds of paced timings. Per round: build s (raw, "
                  "paced), median load s (raw, paced), median reference ms inside the "
                  "build and between steps: "
                  + ", ".join(f"{r.build[0].seconds:.2f} {r.build[0].paced_s:.2f} "
                              f"{np.median([s.seconds for s in r.load]):.3f} "
                              f"{np.median([s.paced_s for s in r.load]):.3f} "
                              f"{np.median(r.build[0].samples) * 1e3:.2f} "
                              f"{np.median(r.pace) * 1e3:.2f}"
                              for r in rounds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    error_rate = tally.failed / max(1, tally.attempted)
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'error_rate':32s} {error_rate:>16.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} operations)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
