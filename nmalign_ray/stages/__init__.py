"""Ray Data stages of the extraction pipeline.

Stage layout (SURVEY §3.4 / §7.2):

| stage          | kind                         | unit            |
|----------------|------------------------------|-----------------|
| extract + salt | stateless ``map_batches``    | document -> chunk rows |
| align          | actor pool ``map_batches``   | chunk           |
| reassemble     | ``groupby("pid").map_groups`` (sort-based shuffle) | partition -> document rows |

``pid = crc32(doc_id) % P`` is computed once at the read
(``pipelines/checkpoint.py``) and rides through every stage's rows.

All stages are Arrow-in / Arrow-out (``batch_format="pyarrow"``).
"""

from .extract_stage import CHUNK_SCHEMA, extract_and_salt
from .aligner import ALIGNED_SCHEMA, AlignChunks, align_chunks_batch
from .reassemble import reassemble_group
from .rollup import ROLLUP_SCHEMA, rollup_batch, rollup_documents, rollup_spans

__all__ = [
    "CHUNK_SCHEMA",
    "ALIGNED_SCHEMA",
    "extract_and_salt",
    "AlignChunks",
    "align_chunks_batch",
    "reassemble_group",
    "ROLLUP_SCHEMA",
    "rollup_batch",
    "rollup_documents",
    "rollup_spans",
]
