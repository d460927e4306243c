"""Core forced-alignment algorithm (pure NumPy, no Ray imports).

``match(l1, l2, ...)`` reproduces the reference's alignment semantics
(``/root/reference/nmalign/lib/align.py:17-243``) exactly — greedy
monotonic assignment with optional subsegmentation — and doubles as the
single-process fixture oracle for the Ray pipeline; ``match_many`` is
its lock-step form over many pairs, which the pipeline's aligner runs.
"""

from .core import AlignConfig, match, match_many, match_subseg

__all__ = ["AlignConfig", "match", "match_many", "match_subseg"]
