"""The single ``ray job submit`` entrypoint for the extraction pipeline.

    ray job submit -- python -m nmalign_ray.jobs.extract_job \
        --input /data/corpus --output /data/extracted --config job.json

``job.json`` (all keys optional)::

    {
      "normalization": {"ſ": "s", ...},   # regex -> replacement, ordered
      "cutoff": 0.0,
      "allow_splits": true,
      "salt_threshold": 256,
      "num_partitions": 32,                # omit = auto max(32, cluster CPUs)
      "refs": "/data/refs",               # two-table form: join on doc_id
      "missing_input": "skip",            # or "abort" (reference
                                          #  OCRD_MISSING_INPUT semantics)
      "on_duplicate": "raise"             # or "last" (reference raises
                                          #  NonUniqueInputFile)
    }

Any other key is an error (``config_from_json`` raises ``ValueError``
naming it), so a misspelled or retired setting never goes unnoticed.

The SAME entrypoint runs unchanged at any cluster size (the north rule's
N vs 4N criterion): one pid-range task per session CPU, data
parallelism from the input fragments, and the checkpointed sink makes
reruns resume from completed partitions.

This module owns its Ray session (guarded init; shutdown on exit) —
unlike the library, which never initialises Ray.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..align.core import AlignConfig
from ..schema import DEFAULT_NORMALIZATION, SALT_THRESHOLD, EngineConfig

JOB_KEYS = frozenset({
    "normalization", "cutoff", "allow_splits", "salt_threshold",
    "num_partitions", "refs", "missing_input", "on_duplicate",
})


def config_from_json(doc: dict) -> EngineConfig:
    unknown = sorted(set(doc) - JOB_KEYS)
    if unknown:
        raise ValueError(
            f"unknown job config key(s) {unknown}; known keys are "
            f"{sorted(JOB_KEYS)}")
    align = AlignConfig(
        normalization=doc.get("normalization", DEFAULT_NORMALIZATION),
        cutoff=doc.get("cutoff"),
        try_subseg=doc.get("allow_splits", True),
    )
    return EngineConfig(
        align=align,
        salt_threshold=doc.get("salt_threshold", SALT_THRESHOLD),
        num_partitions=doc.get("num_partitions"),
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="nmalign-ray-extract")
    p.add_argument("--input", required=True, help="corpus parquet path/dir")
    p.add_argument("--output", required=True, help="checkpointed output dir")
    p.add_argument("--config", default=None, help="job config JSON file")
    p.add_argument("--refs", default=None,
                   help="optional separate reference-segmentation parquet "
                        "(two-table form, joined on doc_id)")
    args = p.parse_args(argv)

    doc = {}
    if args.config:
        with open(args.config) as f:
            doc = json.load(f)
    cfg = config_from_json(doc)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(include_dashboard=False, ignore_reinit_error=True)
    try:
        import ray.data

        from ..pipelines import join_refs
        from ..pipelines.checkpoint import run_checkpointed

        ds = ray.data.read_parquet(args.input)
        refs_path = args.refs or doc.get("refs")
        if refs_path:
            ds = join_refs(ds, ray.data.read_parquet(refs_path),
                           missing=doc.get("missing_input", "skip"),
                           on_duplicate=doc.get("on_duplicate", "raise"))
        summary = run_checkpointed(ds, args.output, cfg)
        print(json.dumps(summary))
    finally:
        if owns_session:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
