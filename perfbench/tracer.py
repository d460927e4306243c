"""Layer spans recorded inside Ray workers, and their per-layer totals.

``install`` is a Ray ``worker_process_setup_hook``: it runs once in every
worker process of a traced session and replaces each layer's public
function, at the module attribute its caller looks it up through, with a
wrapper that records a span (layer name, parent span, wall and thread-CPU
start/end, and a few counts).  Spans are kept in memory per thread and
appended to ``<trace dir>/<pid>-<thread>.jsonl`` whenever the outermost
span of the thread closes, i.e. at the end of each Ray Data batch.

A layer's self time is the thread-CPU time of its spans minus the part
their child spans cover.  CPU that no span covers (Ray, the shuffle,
serialization, other processes) is what ``unattributed_s`` reports.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# layer -> (module, attribute) the wrapper replaces.  Every attribute is
# the name the caller resolves at call time, so the wrapper sits exactly
# on the call into the layer.
LAYERS = {
    "extract.classify": ("nmalign_ray.stages.extract_stage", "classify_spans"),
    "extract_stage": ("nmalign_ray.stages.extract_stage", "extract_and_salt"),
    "fuzzy.cdist": ("nmalign_ray.stages.aligner", "levenshtein_cdist_many"),
    "fuzzy.partial": ("nmalign_ray.align.core", "partial_ratio_alignment_many"),
    "align.greedy": ("nmalign_ray.document", "match"),
    "align.subseg": ("nmalign_ray.align.core", "match_subseg"),
    "graph.shortest_path": ("nmalign_ray.align.core", "shortest_path_from0"),
    "aligner": ("nmalign_ray.stages.aligner", "AlignChunks.__call__"),
    "reassemble": ("nmalign_ray.pipelines.checkpoint", "reassemble_group"),
    "checkpoint.pid": ("nmalign_ray.pipelines.checkpoint", "_add_pid"),
    "checkpoint.filter": ("nmalign_ray.pipelines.checkpoint", "_filter_completed"),
    "checkpoint.write": ("nmalign_ray.pipelines.checkpoint", "_write_partition"),
}

# layer -> metric name of its self time
SELF_METRICS = {
    "extract.classify": "extract.classify_s",
    "extract_stage": "extract_stage.self_s",
    "fuzzy.cdist": "fuzzy.cdist_s",
    "fuzzy.partial": "fuzzy.partial_s",
    "align.greedy": "align.greedy_s",
    "align.subseg": "align.subseg_s",
    "graph.shortest_path": "graph.shortest_path_s",
    "aligner": "aligner.self_s",
    "reassemble": "reassemble.self_s",
    "checkpoint.pid": "checkpoint.pid_s",
    "checkpoint.filter": "checkpoint.filter_s",
    "checkpoint.write": "checkpoint.write_s",
}


def _counts(layer, args, out):
    """The counts recorded on one span (a small dict or None)."""
    if layer == "extract_stage":
        salts = out["salt"].to_pylist()
        return {"chunks": len(salts), "salted_docs": sum(1 for s in salts if s == 1)}
    if layer == "fuzzy.cdist":
        return {"pairs": sum(len(a) * len(b) for a, b in args[0])}
    if layer == "fuzzy.partial":
        return {"jobs": len(args[0])}
    if layer == "align.subseg":
        return {"chars": len(args[1])}
    if layer == "aligner":
        return {"matched": sum(out["matched"].to_pylist()),
                "total": sum(out["total"].to_pylist())}
    if layer == "reassemble":
        return {"chunks": args[0].num_rows}
    return None


class _Recorder(threading.local):
    def __init__(self):
        self.spans = []
        self.stack = []


def _wrap(layer, fn, out_dir, rec):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = rec.stack[-1] if rec.stack else -1
        idx = len(rec.spans)
        rec.spans.append(None)
        rec.stack.append(idx)
        out = None
        t0, c0 = time.time(), time.thread_time()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            c1, t1 = time.thread_time(), time.time()
            rec.stack.pop()
            counts = None if out is None else _counts(layer, args, out)
            rec.spans[idx] = [layer, parent, t0, t1, c0, c1, counts]
            if not rec.stack:
                name = f"{os.getpid()}-{threading.get_native_id()}.jsonl"
                with open(os.path.join(out_dir, name), "a") as f:
                    f.write(json.dumps(rec.spans) + "\n")
                rec.spans.clear()

    return traced


def install():
    """Ray worker setup hook: wrap every layer when tracing is on."""
    out_dir = os.environ.get(TRACE_DIR_ENV)
    if not out_dir:
        return
    import importlib

    rec = _Recorder()
    for layer, (module, attr) in LAYERS.items():
        owner = importlib.import_module(module)
        *outer, name = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, name, _wrap(layer, getattr(owner, name), out_dir, rec))


def aggregate(trace_dir: str, since: float) -> dict:
    """Per-layer self CPU seconds, span counts and recorded counts over
    every span flushed to ``trace_dir`` that started at or after
    ``since`` (epoch seconds)."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    maxima = defaultdict(lambda: defaultdict(int))
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as f:
            for line in f:
                spans = json.loads(line)
                child_cpu = [0.0] * len(spans)
                for layer, parent, t0, t1, c0, c1, cnt in spans:
                    if parent >= 0:
                        child_cpu[parent] += c1 - c0
                for k, (layer, parent, t0, t1, c0, c1, cnt) in enumerate(spans):
                    if t0 < since:
                        continue
                    self_s[layer] += (c1 - c0) - child_cpu[k]
                    calls[layer] += 1
                    for key, val in (cnt or {}).items():
                        counts[layer][key] += val
                        maxima[layer][key] = max(maxima[layer][key], val)
    return {"self_s": dict(self_s), "calls": dict(calls),
            "counts": {k: dict(v) for k, v in counts.items()},
            "maxima": {k: dict(v) for k, v in maxima.items()}}
