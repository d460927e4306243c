r"""Tokens: how every text operator splits, lowercases and normalizes
``documents.text``, and the DuckDB SQL that gives the same values.

A token is a maximal non-empty run of characters outside RE2's ``\s``,
which is ``[\t\n\f\r ]``.  DuckDB's ``regexp_split_to_array`` and Arrow's
``split_pattern_regex`` both run RE2, so they cut at the same places.  The
``''`` pieces that a separator at either end leaves, and the one piece of
an empty text, are dropped on both sides: a text without tokens has none,
with no ``trim`` and no special case.  ``str.split()`` is not this
tokenizer: it also splits on ``\v``, ``\x1c``-``\x1f``, ``\x85``, NBSP and
the Unicode spaces.

Lowercasing is Arrow's ``utf8_lower`` and DuckDB's ``lower()``.  Python's
``str.lower`` differs from both (a final sigma, U+0130), so no operator
uses it.  ``utf8_lower`` and DuckDB's ``lower()`` still differ on 43 code
points that Unicode 14 and later added (U+2C2F, U+A7C0, U+10570-U+10595
among them); text holding those lowercases differently on the two sides.

Each Python form takes a batch (a table with the text column, and with
``doc_id`` to name a null) or a bare text column, and raises ``ValueError``
on a null text.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TEXT = "text"  # the column every Python form reads
SEPARATOR = r"\s+"
# the characters SEPARATOR runs are made of (RE2's \s): what text may
# lose at a chunk's edge; str.strip() also strips \v, NBSP and the
# Unicode spaces, which belong to tokens
SPACE = " \t\n\f\r"
# what DuckDB's trim() strips: the Unicode space separators (category Zs),
# not only " "
TRIMMED = (" \xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B)))
           + "\u202f\u205f\u3000")


def tokens_sql(lower: bool = False) -> str:
    """The tokens of ``text`` as a ``VARCHAR[]``: :func:`split` in SQL."""
    expr = "lower(text)" if lower else "text"
    return f"list_filter(regexp_split_to_array({expr}, '\\s+'), t -> t <> '')"


def doc_tokens_sql(lower: bool = False) -> str:
    """The documents with at least one token, as ``(doc_id, toks)``."""
    return f"""SELECT doc_id, toks
  FROM (SELECT doc_id, {tokens_sql(lower)} AS toks FROM documents)
  WHERE len(toks) > 0"""


# lowercased, space-trimmed, every separator run one space: norm_text in SQL
NORM_TEXT_SQL = "regexp_replace(trim(lower(text)), '\\s+', ' ', 'g')"


class Tokens(NamedTuple):
    flat: pa.Array        # every token, document after document
    offsets: np.ndarray   # document i holds flat[offsets[i]:offsets[i + 1]]
    counts: np.ndarray    # tokens per document (int64)


def _text(data) -> pa.Array:
    if isinstance(data, pa.Table):
        ids = data["doc_id"] if "doc_id" in data.column_names else None
        text = data[TEXT]
    else:
        ids, text = None, data
    if not isinstance(text, (pa.Array, pa.ChunkedArray)):
        text = pa.array(text, pa.string())
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    if text.null_count:
        row = pc.index(pc.is_null(text), True).as_py()
        at = f"doc_id {ids[row].as_py()!r}" if ids is not None else f"row {row}"
        raise ValueError(f"{TEXT} is null at {at}; an empty document "
                         "is '', not null")
    return text


def split(data, lower: bool = False) -> Tokens:
    """The tokens of each text, flat, lowercased first if ``lower``:
    ``tokens_sql(lower)``."""
    text = _text(data)
    if lower:
        text = pc.utf8_lower(text)
    pieces = pc.split_pattern_regex(text, SEPARATOR)
    flat = pc.list_flatten(pieces)
    keep = pc.not_equal(flat, "")
    doc = pc.list_parent_indices(pieces).filter(keep).to_numpy()
    counts = np.bincount(doc, minlength=len(text)).astype(np.int64)
    offsets = np.zeros(len(text) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Tokens(flat.filter(keep), offsets, counts)


def token_lists(data, lower: bool = False) -> list[list[str]]:
    """:func:`split` as one Python list of tokens per text.  It cuts in
    Python at " ", once every other RE2 separator is made one, because
    turning every Arrow token into a Python string costs ten times what
    splitting does."""
    text = _text(data)
    if lower:
        text = pc.utf8_lower(text)
    spaced = pc.replace_substring_regex(text, r"[^\S ]", " ")
    return [list(filter(None, t.split(" "))) for t in spaced.to_pylist()]


def norm_text(data) -> pa.Array:
    """:data:`NORM_TEXT_SQL`: ``utf8_trim(..., TRIMMED)`` is ``trim()``,
    and the collapse runs RE2 on both sides."""
    return pc.replace_substring_regex(
        pc.utf8_trim(pc.utf8_lower(_text(data)), TRIMMED),
        SEPARATOR, " ")
