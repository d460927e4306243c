"""Benchmark of the checkpointed extraction pipeline.

    python3 perfbench/run.py --workload mix --seed 1 --seconds 14 --trace 0

Drives ``nmalign_ray.pipelines.checkpoint.run_checkpointed`` with the
default ``EngineConfig()`` from this one driver process, in a local Ray
session of as many CPUs as the process may run on.  Each run:

1. sets up ``SETUP_REPEATS`` times (fresh Ray session, inputs generated
   from the seed into a fresh directory, warm-up) and keeps the last
   session;
2. runs whole rounds, one pipeline execution each into a fresh checkpoint
   directory, until ``--seconds`` have passed;
3. shuts Ray down, checks every round's output (``checks.py``) and runs
   the checks' self-test on the first round;
4. prints one JSON line: ``correct``, ``attempted`` and ``failed``
   documents, and the metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
rounds once untraced and once in a second session whose workers record
layer spans (``tracer.py``), and reports the per-layer metrics.  All
files go under ``.perfbench/`` at the root of the checkout; a run
removes its own working directory and keeps one result file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 2
STEP_TIMEOUT_S = 60.0  # a set-up or round taking longer counts as hung
LAST_ROUND_START_S = 110.0  # no round starts later than this into the run
RUN_LIMIT_S = 165.0  # every step ends by then, so the run ends within 180 s
OBJECT_STORE_BYTES = 512 * 1024 * 1024
WORKLOADS = ("mix", "giant")

END_TO_END = ("setup_s", "docs_per_s", "spans_per_s", "cpu_s", "peak_worker_rss_mb")
UNITS = {"setup_s": "s", "docs_per_s": "docs/s", "spans_per_s": "spans/s",
         "cpu_s": "s", "peak_worker_rss_mb": "MiB"}

PER_LAYER = (
    "extract.classify_s", "extract_stage.self_s", "extract_stage.chunks",
    "extract_stage.salted_docs", "fuzzy.cdist_s", "fuzzy.cdist_pairs",
    "fuzzy.partial_s", "fuzzy.partial_jobs", "align.greedy_s", "align.match_calls",
    "align.subseg_s", "align.subseg_calls", "align.subseg_max_chars",
    "align.matched_refs", "align.total_refs", "graph.shortest_path_s",
    "aligner.self_s", "aligner.batches", "reassemble.self_s", "reassemble.docs",
    "reassemble.max_chunks_per_doc", "checkpoint.pid_s", "checkpoint.filter_s",
    "checkpoint.write_s", "checkpoint.bytes_written", "checkpoint.partitions_written",
    "checkpoint.partitions_skipped", "checkpoint.max_partition_docs",
    "ray_data.read.cpu_s", "ray_data.read.wall_s", "ray_data.read.peak_heap_mb",
    "ray_data.align.cpu_s", "ray_data.align.wall_s", "ray_data.align.peak_heap_mb",
    "ray_data.pid.cpu_s", "ray_data.pid.wall_s", "ray_data.pid.peak_heap_mb",
    "ray_data.sort.cpu_s", "ray_data.sort.wall_s", "ray_data.shuffle_s",
    "ray_data.write.cpu_s", "ray_data.write.wall_s", "ray_data.write.peak_heap_mb",
    "unattributed_s", "trace.cpu_s", "trace.untraced_wall_s", "trace.traced_wall_s",
    "trace.overhead_pct",
)

# Ray Data operators of the checkpointed plan, by a name fragment
OPERATORS = (("AlignChunks", "align"), ("ReadParquet", "read"),
             ("_add_pid", "pid"), ("_write_partition", "write"), ("Sort", "sort"))


class RoundTimeout(Exception):
    pass


def step_timeout(started: float) -> float:
    """Seconds the next step may take, given the run began at ``started``."""
    return min(STEP_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - started))


@contextmanager
def deadline(seconds: float):
    """Raise ``RoundTimeout`` in this (main) thread after ``seconds``."""
    def fire(signum, frame):
        raise RoundTimeout(f"no result after {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.01))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# --- Ray session ----------------------------------------------------------

def _program_file():
    import nmalign_ray

    return nmalign_ray.__file__


def ray_temp_dir() -> Path:
    """This run's own directory for Ray's session files."""
    return ROOT / ".perfbench" / f"ray-{os.getpid()}"


def start_ray(trace_dir: str | None = None):
    """Start a local Ray session on this process's CPUs, with the checkout
    on every worker's import path."""
    import ray
    from ray.data import DataContext

    kwargs = dict(address="local", num_cpus=len(os.sched_getaffinity(0)),
                  include_dashboard=False, logging_level="ERROR",
                  log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES)
    temp_dir = str(ray_temp_dir())
    # Ray's socket paths under temp_dir must stay below the 107-byte limit
    if len(temp_dir) <= 42:
        kwargs["_temp_dir"] = temp_dir
    if trace_dir is not None:
        from perfbench.tracer import TRACE_DIR_ENV

        kwargs["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.tracer.install",
            "env_vars": {TRACE_DIR_ENV: trace_dir, "PYTHONPATH": os.environ["PYTHONPATH"]},
        }
    ray.init(**kwargs)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    # fail loudly, not with an actor pool that restarts forever, when the
    # workers import another copy of the program or none at all
    where = ray.get(ray.remote(_program_file).remote(), timeout=60)
    if not where.startswith(str(ROOT / "nmalign_ray")):
        raise RuntimeError(f"Ray workers import nmalign_ray from {where}")


def read_corpus(path: str, num_docs: int):
    import ray.data

    return ray.data.read_parquet(path, override_num_blocks=min(num_docs, 16))


# --- workloads --------------------------------------------------------------

class Workload:
    """Inputs, set-up, one round, and the checks of one workload."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.inputs = None
        self.data_dir = None

    def set_up(self, tag: str):
        """Generate this run's inputs into a fresh directory and warm up
        (in the session ``start_ray`` opened)."""
        from perfbench import inputs

        from nmalign_ray.pipelines.checkpoint import run_checkpointed
        from nmalign_ray.schema import EngineConfig

        self.data_dir = str(self.work / tag)
        if self.name == "giant":
            self.inputs = inputs.make_giant(self.seed, self.data_dir)
        else:
            self.inputs = inputs.make_mix(self.seed, self.data_dir)
        # warm-up: one small execution of the same pipeline, so that the
        # first timed round does not pay for first imports and exports
        warm = inputs.make_warm_up(os.path.join(self.data_dir, "warm-up"))
        run_checkpointed(read_corpus(warm.corpus, warm.num_docs),
                         os.path.join(self.data_dir, "warm-up", "out"), EngineConfig())

    def run_round(self, out_dir: str, timeout: float, collect_stats: bool):
        """One timed pipeline execution; returns ``(wall_s, job)``."""
        from nmalign_ray.pipelines.checkpoint import run_checkpointed
        from nmalign_ray.schema import EngineConfig

        with deadline(timeout):
            t0 = time.perf_counter()
            job = run_checkpointed(read_corpus(self.inputs.corpus, self.inputs.num_docs),
                                   out_dir, EngineConfig(), collect_stats=collect_stats)
            wall = time.perf_counter() - t0
        return wall, job

    def content_check(self):
        from perfbench import checks

        if self.name == "giant":
            return checks.GiantCheck(self.inputs.corpus, self.inputs.giant_kinds, self.seed)
        return checks.OracleCheck(self.inputs.documents)


# --- one measured phase -------------------------------------------------------

def timed_rounds(wl: Workload, tag: str, seconds: float, started: float,
                 rounds: int | None = None, collect_stats: bool = False) -> dict:
    """Run rounds for ``seconds`` (or exactly ``rounds``) and measure them."""
    from perfbench import procfs

    monitor = procfs.TreeMonitor().start()
    t_start, epoch_start = time.perf_counter(), time.time()
    walls, cpus, jobs, outs, timed_out = [], [], [], [], None
    while True:
        out_dir = str(wl.work / f"{tag}-round{len(walls)}")
        try:
            wall, job = wl.run_round(out_dir, step_timeout(started), collect_stats)
        except RoundTimeout as exc:
            timed_out = str(exc)
            break
        walls.append(wall)
        cpus.append(monitor.lap())
        jobs.append(job)
        outs.append(out_dir)
        if rounds is not None:
            if len(walls) >= rounds:
                break
        elif time.perf_counter() - t_start >= seconds:
            break
        if time.perf_counter() - started > LAST_ROUND_START_S:
            break
    cpu, peak = monitor.stop()
    return {"walls": walls, "round_cpu_s": cpus, "jobs": jobs, "outs": outs, "cpu_s": cpu,
            "peak_rss_mib": peak, "timed_out": timed_out, "epoch_start": epoch_start}


def judge(wl: Workload, phases: list[dict]) -> dict:
    """Check every round of every phase; count attempted and failed
    documents."""
    from perfbench import checks

    check = wl.content_check()
    attempted_per_round = set(wl.inputs.spans_per_doc)
    attempted = failed = 0
    problems = []
    first = None
    timed_out = any(phase["timed_out"] for phase in phases)
    for phase in phases:
        for out_dir, job in zip(phase["outs"], phase["jobs"]):
            verdict, parts = checks.check_round(out_dir, check)
            attempted += len(attempted_per_round)
            failed += len(verdict.bad_docs & attempted_per_round)
            problems += verdict.problems
            if verdict.bad_docs - attempted_per_round:
                problems.append("documents outside the attempted set are wrong")
            if job["num_docs"] != len(attempted_per_round):
                problems.append(f"wrote {job['num_docs']} documents, "
                                f"expected {len(attempted_per_round)}")
            first = first or parts
        if phase["timed_out"]:
            attempted += len(attempted_per_round)
            failed += len(attempted_per_round)
            problems.append(phase["timed_out"])
    if first is None:
        problems.append("no round finished")
    else:
        missed = checks.self_test(first, check)
        problems += [f"self-test: {m} was not rejected" for m in missed]
    # a hung round counts its documents as failed; correctness speaks of
    # the documents that did not fail
    unexplained = [p for p in problems if not p.startswith("no result after")
                   and not (p == "no round finished" and timed_out)]
    return {"attempted": attempted, "failed": failed, "correct": not unexplained,
            "problems": problems}


def throughput(wl: Workload, phase: dict) -> dict:
    """Medians over the rounds; with no finished round (judge() then
    counts every document failed) the rates read 0."""
    spans = sum(wl.inputs.spans_per_doc.values())
    walls = phase["walls"] or [float("inf")]
    docs = [job["num_docs"] for job in phase["jobs"]] or [0]
    return {"docs_per_s": statistics.median(d / w for d, w in zip(docs, walls)),
            "spans_per_s": statistics.median(spans / w for w in walls),
            "cpu_s": statistics.median(phase["round_cpu_s"] or [phase["cpu_s"]]),
            "peak_worker_rss_mb": phase["peak_rss_mib"]}


# --- per-layer metrics ------------------------------------------------------

_TIME = re.compile(r"([\d.]+)(us|ms|s)\b")
_SCALE = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_stats(text: str) -> dict:
    """Per-operator remote CPU/wall seconds and peak heap from
    ``Dataset.stats()``, plus the Sort operator's wall time."""
    out = {}
    key = None
    for line in text.splitlines():
        top = re.match(r"^Operator \d+ (.+?): (.*)$", line)
        if top:
            key = next((k for frag, k in OPERATORS if frag in top.group(1)), None)
            executed = re.search(r"executed in ([\d.]+)(us|ms|s)\s*$", top.group(2))
            if key == "sort" and executed:
                out["shuffle_s"] = out.get("shuffle_s", 0.0) + float(
                    executed.group(1)) * _SCALE[executed.group(2)]
            continue
        if key is None:
            continue
        stripped = line.strip()
        for label, metric in (("* Remote wall time:", "wall_s"), ("* Remote cpu time:", "cpu_s")):
            if stripped.startswith(label):
                total = _TIME.findall(stripped.split(",")[-1])
                if total:
                    val, unit = total[-1]
                    name = f"{key}.{metric}"
                    out[name] = out.get(name, 0.0) + float(val) * _SCALE[unit]
        if stripped.startswith("* Peak heap memory usage (MiB):"):
            peak = float(re.search(r"([\d.]+) max", stripped).group(1))
            name = f"{key}.peak_heap_mb"
            out[name] = max(out.get(name, 0.0), peak)
    return out


def layer_metrics(wl: Workload, traced: dict, untraced: dict, trace_dir: str) -> dict:
    from perfbench import tracer

    n = max(1, len(traced["walls"]))
    agg = tracer.aggregate(trace_dir, traced["epoch_start"])
    self_s, calls = agg["self_s"], agg["calls"]
    counts, maxima = agg["counts"], agg["maxima"]
    m = {}
    for layer, name in tracer.SELF_METRICS.items():
        m[name] = self_s.get(layer, 0.0) / n
    cpu = traced["cpu_s"] / n
    m["unattributed_s"] = cpu - sum(m[name] for name in tracer.SELF_METRICS.values())
    m["trace.cpu_s"] = cpu

    def count(layer, key):
        return counts.get(layer, {}).get(key, 0) / n

    m["extract_stage.chunks"] = count("extract_stage", "chunks")
    m["extract_stage.salted_docs"] = count("extract_stage", "salted_docs")
    m["fuzzy.cdist_pairs"] = count("fuzzy.cdist", "pairs")
    m["fuzzy.partial_jobs"] = count("fuzzy.partial", "jobs")
    m["align.match_calls"] = calls.get("align.greedy", 0) / n
    m["align.subseg_calls"] = calls.get("align.subseg", 0) / n
    m["align.subseg_max_chars"] = maxima.get("align.subseg", {}).get("chars", 0)
    m["align.matched_refs"] = count("aligner", "matched")
    m["align.total_refs"] = count("aligner", "total")
    m["aligner.batches"] = calls.get("aligner", 0) / n
    m["reassemble.docs"] = calls.get("reassemble", 0) / n
    m["reassemble.max_chunks_per_doc"] = maxima.get("reassemble", {}).get("chunks", 0)

    from perfbench import checks

    written = skipped = 0
    nbytes = max_docs = 0
    for out_dir, job in zip(traced["outs"], traced["jobs"]):
        written += job["partitions_written"]
        skipped += job["partitions_skipped"]
        for part in checks.read_partitions(out_dir):
            path = os.path.join(out_dir, f"part={part.pid}", "data.parquet")
            nbytes += os.path.getsize(path)
            max_docs = max(max_docs, part.table.num_rows)
    m["checkpoint.bytes_written"] = nbytes / n
    m["checkpoint.partitions_written"] = written / n
    m["checkpoint.partitions_skipped"] = skipped / n
    m["checkpoint.max_partition_docs"] = max_docs

    stats = {}
    for job in traced["jobs"]:
        for k, v in parse_stats(job.get("stats", "")).items():
            stats[k] = max(stats.get(k, 0.0), v) if k.endswith("peak_heap_mb") \
                else stats.get(k, 0.0) + v
    for frag, key in OPERATORS:
        for metric in ("cpu_s", "wall_s", "peak_heap_mb"):
            if key == "sort" and metric == "peak_heap_mb":
                continue
            v = stats.get(f"{key}.{metric}", 0.0)
            m[f"ray_data.{key}.{metric}"] = v if metric == "peak_heap_mb" else v / n
    m["ray_data.shuffle_s"] = stats.get("shuffle_s", 0.0) / n

    t_wall = sum(traced["walls"]) / n
    u_wall = sum(untraced["walls"]) / max(1, len(untraced["walls"]))
    m["trace.untraced_wall_s"] = u_wall
    m["trace.traced_wall_s"] = t_wall
    m["trace.overhead_pct"] = 100.0 * (t_wall - u_wall) / u_wall if u_wall else 0.0
    return m


# --- main -----------------------------------------------------------------------

def stop_ray():
    import ray

    ray.shutdown()


def set_up(wl: Workload, tag: str, started: float, trace_dir: str | None = None) -> float:
    """One set-up: a fresh Ray session, fresh inputs, warm-up."""
    t0 = time.perf_counter()
    with deadline(step_timeout(started)):
        start_ray(trace_dir)
        wl.set_up(tag)
    return time.perf_counter() - t0


def bench(workload: str, seed: int, seconds: float, trace: bool, started: float):
    work = ROOT / ".perfbench" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = Workload(workload, seed, work)
    try:
        if not trace:
            setups = []
            for k in range(SETUP_REPEATS):
                if k:
                    stop_ray()
                setups.append(set_up(wl, f"setup{k}", started))
            phase = timed_rounds(wl, "timed", seconds, started)
            stop_ray()
            metrics = {"setup_s": statistics.median(setups), **throughput(wl, phase)}
            verdict = judge(wl, [phase])
            record = {"setups": setups, "walls": phase["walls"]}
        else:
            set_up(wl, "setup-untraced", started)
            untraced = timed_rounds(wl, "untraced", seconds, started)
            stop_ray()
            trace_dir = str(work / "spans")
            os.makedirs(trace_dir)
            set_up(wl, "setup-traced", started, trace_dir)
            traced = timed_rounds(wl, "traced", seconds, started,
                                  rounds=max(1, len(untraced["walls"])), collect_stats=True)
            stop_ray()
            metrics = layer_metrics(wl, traced, untraced, trace_dir)
            verdict = judge(wl, [untraced, traced])
            record = {"untraced_walls": untraced["walls"], "traced_walls": traced["walls"],
                      "stats": [j.get("stats", "") for j in traced["jobs"]]}
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(ray_temp_dir(), ignore_errors=True)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(results / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json", "w") as f:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                   **verdict, **record}, f, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    return metrics, verdict


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "nmalign_ray" / "__init__.py").is_file() \
            or not (ROOT / "__ray_entry__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)

    # load the driver's modules before any set-up is timed, so that the
    # first of the set-ups measures the same work as the others
    import ray.data  # noqa: F401

    import nmalign_ray.pipelines.checkpoint  # noqa: F401
    from perfbench import checks, inputs  # noqa: F401

    metrics, verdict = bench(args.workload, args.seed, args.seconds,
                             bool(args.trace), started)
    for problem in verdict["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in names},
    }, allow_nan=False))
    return 0


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
