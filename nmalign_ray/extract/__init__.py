"""Span classification / extraction front-end (the reference's "parse cascade").

The reference's side-2 fallback cascade (PAGE-XML lines → PAGE regions
split to pseudo-lines → sorted plaintext files split to lines,
``/root/reference/nmalign/ocrd/cli.py:194-218``) generalizes here — per the
north rule — to a registry of per-``kind`` span classifiers that turn each
interleaved document's spans into the candidate text segments to be
aligned (nmalign's "list of replacements", side 2):

* ``text``  → one candidate per span, text as-is;
* ``html``  → DOM-heuristic boilerplate strip (``html.py``), possibly many
  candidates per span;
* ``pdf``   → layout-order parse: spans re-ordered by ``offset`` and
  dehyphenated (``pdf.py``);
* media kinds (``image``/``audio``/``video``) → opaque pass-through
  markers that skip alignment and are re-interleaved into the output by
  offset.

The registry is the engine's user-extension surface (the counterpart of
the reference's ``normalization`` regex program + processor plugin
contract, SURVEY §2.4): register a callable per new ``kind``.

Everything here is pure Python over one document's spans — it runs
identically inside the single-process oracle and the Ray
``map_batches`` stage, which is what makes fixture parity possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..schema import MEDIA_KINDS
from ..tokens import SPACE
from .html import extract_html_blocks
from .pdf import parse_pdf_text


@dataclass(frozen=True)
class Candidate:
    """One alignable text segment produced from an input span."""

    kind: str  # source span kind ("text" | "html" | "pdf" | ...)
    text: str
    offset: int  # source span offset (provenance / ordering)


@dataclass(frozen=True)
class MediaMarker:
    """One non-text span preserved verbatim into the output sequence."""

    kind: str
    media_ref: str
    offset: int


def _classify_text(text: str, offset: int):
    return [Candidate("text", text, offset)]


def _classify_html(text: str, offset: int):
    return [Candidate("html", block, offset) for block in extract_html_blocks(text)]


def _classify_pdf(text: str, offset: int):
    return [Candidate("pdf", seg, offset) for seg in parse_pdf_text(text)]


KIND_REGISTRY = {
    "text": _classify_text,
    "html": _classify_html,
    "pdf": _classify_pdf,
}


def is_media(kind: str, text: str, media_ref: str) -> bool:
    """The media rule: a span is an opaque media marker when its kind is a
    media kind, or when it carries a ``media_ref`` and no text.  Applied
    alike to input spans (here) and to reference spans
    (``document.reference_segments``)."""
    return kind in MEDIA_KINDS or bool(media_ref and not text)


def classify_spans(kinds, texts, media_refs, offsets):
    """Classify one document's spans into ``(candidates, media_markers)``.

    Spans are processed in ascending ``offset`` order (the explicit
    reading order of the data model — the reference's reading-order
    traversal O9, ``ocrd/cli.py:306-325``, made a column), which also
    realizes the pdf layout-order parse for shuffled span lists.

    Candidates of separator characters only (``tokens.SPACE``) are
    dropped, mirroring the reference's empty-line filter
    (``ocrd/cli.py:219-226``); a ``\v`` or NBSP is part of a token.
    """
    order = sorted(range(len(kinds)), key=lambda k: (offsets[k], k))
    candidates: list[Candidate] = []
    media: list[MediaMarker] = []
    for k in order:
        kind = kinds[k]
        if is_media(kind, texts[k], media_refs[k]):
            media.append(MediaMarker(kind, media_refs[k], int(offsets[k])))
            continue
        classifier = KIND_REGISTRY.get(kind, _classify_text)
        for cand in classifier(texts[k], int(offsets[k])):
            if cand.text.strip(SPACE):
                candidates.append(cand)
    return candidates, media
