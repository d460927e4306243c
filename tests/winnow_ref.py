"""Shared brute-force reference for the winnowing fingerprint tests —
ONE hand-maintained copy of the algorithm (rightmost-min tie rule) and
of the normalization: lower -> trim ' ' -> collapse the RE2 ASCII
whitespace class.  It is `tokens.norm_text` / `WINNOW_SQL` only on ASCII
texts whose edges hold no space but ' ', as the winnowing tests' texts
are: those trim every Unicode space separator, and lowercase with
`utf8_lower` / DuckDB `lower()`, not `str.lower`."""
import hashlib
import re

_RE2_WS = re.compile(r"[\t\n\f\r ]+")


def normalize(text: str) -> str:
    return _RE2_WS.sub(" ", text.lower().strip(" "))


def winnow_brute(text: str, k: int, w: int) -> set:
    """All selected (pos, fp) pairs for one document."""
    t = normalize(text)
    m = len(t) - k + 1
    if m <= 0:
        return set()
    hs = [int.from_bytes(hashlib.md5(t[i:i + k].encode()).digest()[:8],
                         "big")
          for i in range(m)]
    out = set()
    for j in range(max(m - w + 1, 1)):
        win = hs[j:j + w]
        mn = min(win)
        pos = j + max(i for i, h in enumerate(win) if h == mn)
        out.add((pos, hs[pos]))
    return out
