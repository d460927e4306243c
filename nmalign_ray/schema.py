"""Arrow schemas and engine configuration for the extraction pipeline.

The logical data model per ``BASELINE.json:input_hint``: one table of
interleaved text+media documents,

    doc_id: string
    spans:  list<struct<kind:string, text:string, media_ref:string, offset:int32>>

optionally paired (same table or a second table joined on ``doc_id``) with
the reference segmentation ``ref_spans`` of the same span type.  This is
the columnar, batched, streaming counterpart of the reference's in-memory
string lists / PAGE-XML DOM (SURVEY §1.2; reference data model at
``/root/reference/nmalign/lib/align.py:17,36-37`` and
``/root/reference/nmalign/ocrd/cli.py:167-217``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa

from .align.core import AlignConfig

SPAN_TYPE = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

CORPUS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_TYPE)),
        ("ref_spans", pa.list_(SPAN_TYPE)),
    ]
)

# two-table variant (exercises the per-doc pair join, reference O1
# zip_input_files -- /root/reference/nmalign/ocrd/cli.py:48-108)
INPUT_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", pa.list_(SPAN_TYPE))])
REF_SCHEMA = pa.schema([("doc_id", pa.string()), ("ref_spans", pa.list_(SPAN_TYPE))])

OUTPUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_TYPE)),
        # per-doc metric columns (replace the reference's shared
        # mp.Manager stats dict, ocrd/cli.py:110-118, via dataflow)
        ("mean_score", pa.float64()),
        ("matched", pa.int32()),
        ("total", pa.int32()),
        ("unmatched_ref_count", pa.int32()),
    ]
)

TEXT_KINDS = ("text", "html", "pdf")
MEDIA_KINDS = ("image", "audio", "video")

# the default of EngineConfig.salt_threshold, and of every function that
# salts or aligns documents outside a job
SALT_THRESHOLD = 256


def cluster_cpus(default: int = 8) -> int:
    """Cluster CPU count for sizing shuffle widths / shard counts —
    THE shared snippet (was copy-pasted 15x across the stages before
    round 5's review).  Falls back to ``default`` outside a Ray session
    so pure-python callers (tests, serial oracles) keep working."""
    import ray

    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", default))
    return default


# The reference test-suite's historical-orthography normalization map
# (shape of /root/reference/tests/test_all.py:16-26), the engine default.
DEFAULT_NORMALIZATION = {
    "ſ": "s",
    "aͤ": "ä",
    "oͤ": "ö",
    "uͤ": "ü",
    "Aͤ": "Ä",
    "Oͤ": "Ö",
    "Uͤ": "Ü",
    "⸗": "-",
    " *\n": " ",
}


@dataclass(frozen=True)
class EngineConfig:
    """Job-level configuration (the JSON a ``ray job submit`` entrypoint takes)."""

    align: AlignConfig = field(
        default_factory=lambda: AlignConfig(
            normalization=DEFAULT_NORMALIZATION, try_subseg=True
        )
    )
    # skew handling: documents with more candidate segments than this are
    # salted into contiguous (doc_id, salt) chunks before alignment and
    # re-merged by offset afterwards (north rule; SURVEY §4.2).  This
    # bounds the size of each alignment call; all chunks of a document
    # are still aligned in one task, on one CPU (heavy documents' own
    # tasks, pipelines/checkpoint.py::REMOTE_CELLS, let the heavy
    # documents of one pid range align in parallel)
    salt_threshold: int = SALT_THRESHOLD
    # output partitioning: partition_id = crc32(doc_id) % num_partitions,
    # at least 1.  The exchange is narrower: it sorts the pids into
    # min(P, CPUs) contiguous pid ranges, one block and one task each;
    # the map before it is sized by input bytes
    # (pipelines/checkpoint.py::MAP_TASK_BYTES), neither by P nor by CPUs.
    # None (the default) = derive from the cluster at run time,
    # max(32, CPUs) — a fixed 32 starves the sink at 4N nodes (round-3
    # verdict item 6).  The checkpointed sink PINS the resolved value in
    # its manifest so a resume at a different cpu count keeps the
    # original partitioning (crc32 % P must not change mid-job).
    num_partitions: int | None = None

    def __post_init__(self):
        # checked here, before the checkpointed sink can pin a bad P
        if self.num_partitions is not None and self.num_partitions < 1:
            raise ValueError(
                f"num_partitions must be at least 1, got {self.num_partitions}")

    def resolved_partitions(self) -> int:
        if self.num_partitions is not None:
            return self.num_partitions
        return max(32, cluster_cpus())
