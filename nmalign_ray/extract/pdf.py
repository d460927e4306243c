"""PDF-derived span parsing: layout-order text normalization.

Fills the north rule's "PDF layout-order parse" slot of the parse cascade
(the generalization slot of ``/root/reference/nmalign/ocrd/cli.py:201-215``).
PDF text extraction emits hard-wrapped lines with hyphenation artifacts
and no logical paragraphs; the layout *order* itself is carried by the
span's explicit ``offset`` field (the reference's reading-order dict O9
made a column — spans may appear shuffled in the list, ``classify_spans``
re-sorts them).

Per-span normalization:

* wrap-hyphenation repair: ``⸗`` (the historic double-oblique hyphen the
  reference's test normalization folds, ``tests/test_all.py`` NRM) or
  ``-`` immediately before a line break joins the two word halves;
* remaining hard line breaks collapse to single spaces (the reference's
  ``" *\\n" -> " "`` normalization rule, applied structurally here);
* runs of spaces collapse.
"""

from __future__ import annotations

import re

from ..tokens import SPACE

_HYPHEN_WRAP = re.compile(r"[-⸗]\n")
_LINE_BREAK = re.compile(r" *\n *")
_MULTISPACE = re.compile(r"  +")


def parse_pdf_text(text: str) -> list[str]:
    """Normalize one pdf-derived span into candidate segments.

    Paragraph breaks (blank lines) delimit segments; within a segment,
    hyphenated wraps are joined and line breaks become spaces.
    """
    segments = []
    for para in re.split(r"\n[ \t]*\n", text):
        para = _HYPHEN_WRAP.sub("", para)
        para = _LINE_BREAK.sub(" ", para)
        para = _MULTISPACE.sub(" ", para).strip(SPACE)
        if para:
            segments.append(para)
    return segments
