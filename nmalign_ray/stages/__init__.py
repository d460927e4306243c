"""The per-partition stages of the extraction pipeline.

Stage layout (SURVEY §3.4 / §7.2):

| stage          | runs in                                      | unit                    |
|----------------|----------------------------------------------|-------------------------|
| extract + salt | the pid range's ``map_batches`` task, or a   | document -> chunk rows  |
|                | heavy document's own Ray task                |                         |
| align          | the same task (``AlignChunks``, in process)  | chunk                   |
| reassemble     | the range task (``reassemble_group``)        | chunks -> document rows |

``pid = crc32(doc_id) % P`` is computed once at the read, and the one
exchange, ``sort("pid")`` into one block per CPU (``[0, P)`` in
``min(P, CPUs)`` contiguous pid ranges), moves the input rows before any
stage runs (``pipelines/checkpoint.py``).  Each range's task then takes
its partitions in pid order and runs the three stages over slices of
``SLICE_DOCS`` documents of one partition.  Before that, it sends the
documents whose estimated cost is over ``REMOTE_CELLS``, all but the
first it will reach, to Ray tasks of their own (extract + salt + align)
and collects their rows into their slices, so heavy documents of one
range align in parallel.  One document's chunks still run in one task.

All stages are Arrow-in / Arrow-out.
"""

from .extract_stage import CHUNK_SCHEMA, extract_and_salt
from .aligner import ALIGNED_SCHEMA, AlignChunks
from .reassemble import reassemble_group
from .rollup import ROLLUP_SCHEMA, rollup_batch, rollup_documents, rollup_spans

__all__ = [
    "CHUNK_SCHEMA",
    "ALIGNED_SCHEMA",
    "extract_and_salt",
    "AlignChunks",
    "reassemble_group",
    "ROLLUP_SCHEMA",
    "rollup_batch",
    "rollup_documents",
    "rollup_spans",
]
