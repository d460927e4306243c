"""HTML main-content extraction: DOM-heuristic boilerplate strip.

Fills the north rule's "HTML boilerplate strip" slot of the parse cascade
(the generalization slot of ``/root/reference/nmalign/ocrd/cli.py:201-215``).
Heuristics follow the published main-content-extraction literature
(Arc90 Readability / jusText / boilerpipe families — tag class + link
density + block length), implemented over the stdlib ``html.parser`` (no
external HTML libraries exist in this environment):

1. split the document into text blocks at block-level element boundaries;
2. drop everything under chrome containers (nav / header / footer /
   aside / form / script / style / template / iframe);
3. drop blocks whose *link density* (fraction of characters inside
   ``<a>``) is >= 0.33 — link farms and menus;
4. drop blocks shorter than 10 characters of stripped text — stray
   separators and decorations.

Deterministic and pure: the same function body runs in the oracle and in
the Ray stage.
"""

from __future__ import annotations

from html.parser import HTMLParser

from ..tokens import SPACE

BLOCK_TAGS = {
    "p", "div", "li", "h1", "h2", "h3", "h4", "h5", "h6",
    "article", "section", "blockquote", "pre", "td", "th", "tr",
    "ul", "ol", "table", "main", "body",
}
CHROME_TAGS = {
    "nav", "header", "footer", "aside", "form", "script", "style",
    "template", "iframe", "noscript", "button", "select", "option",
}
MAX_LINK_DENSITY = 0.33
MIN_BLOCK_CHARS = 10


class _BlockCollector(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.blocks: list[tuple[str, int]] = []  # (text, link_chars)
        self._text: list[str] = []
        self._link_chars = 0
        self._chrome_depth = 0
        self._anchor_depth = 0

    def _flush(self):
        text = "".join(self._text).strip(SPACE)
        if text:
            self.blocks.append((text, self._link_chars))
        self._text = []
        self._link_chars = 0

    def handle_starttag(self, tag, attrs):
        if tag in CHROME_TAGS:
            self._flush()
            self._chrome_depth += 1
        elif tag == "a":
            self._anchor_depth += 1
        elif tag in BLOCK_TAGS or tag == "br":
            self._flush()

    def handle_endtag(self, tag):
        if tag in CHROME_TAGS:
            self._flush()
            self._chrome_depth = max(0, self._chrome_depth - 1)
        elif tag == "a":
            self._anchor_depth = max(0, self._anchor_depth - 1)
        elif tag in BLOCK_TAGS:
            self._flush()

    def handle_data(self, data):
        if self._chrome_depth:
            return
        self._text.append(data)
        if self._anchor_depth:
            self._link_chars += len(data)

    def close(self):
        super().close()
        self._flush()


def extract_html_blocks(html_text: str) -> list[str]:
    """Main-content text blocks of an HTML fragment, in document order."""
    parser = _BlockCollector()
    parser.feed(html_text)
    parser.close()
    out = []
    for text, link_chars in parser.blocks:
        if len(text) < MIN_BLOCK_CHARS:
            continue
        if link_chars / len(text) >= MAX_LINK_DENSITY:
            continue
        out.append(text)
    return out
