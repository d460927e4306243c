"""Pipeline builders: compose the Ray Data stages into runnable jobs."""

from .checkpoint import build_extract_pipeline
from .extract import join_refs

__all__ = ["build_extract_pipeline", "join_refs"]
