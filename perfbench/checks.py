"""Output checks, computed apart from the program under test.

A round's output is read back from its checkpoint directory (every
``part=<pid>/data.parquet`` and ``_manifest/part-<pid>.json``) and judged
per document:

* layout (every workload): each partition has its manifest, the
  manifest's ``num_docs`` equals the parquet row count, and no
  ``doc_id`` is written twice, in one partition or in two;
* ``mix``: the exploded ``(doc_id, order, kind, text,
  media_ref)`` rows equal, as a multiset, the rows of the SQL oracle
  ``__ray_entry__.oracle_sql()["extract_align"]`` run in DuckDB over the
  generated documents table;
* ``giant``: skewed documents return their input spans exactly;
  long-segment documents satisfy the invariants of ``check_longseg`` and
  a seeded sample equals a fresh in-process ``process_document`` run.

``self_test`` feeds the same checks four corrupted copies of a correct
output and requires each to be rejected.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ROW_COLUMNS = ("doc_id", "order", "kind", "text", "media_ref")


@dataclass
class Partition:
    pid: int
    manifest: dict | None
    table: pa.Table


@dataclass
class Verdict:
    bad_docs: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def reject(self, doc_id, why: str):
        self.bad_docs.add(doc_id)
        if len(self.problems) < 20:
            self.problems.append(f"{doc_id}: {why}")


def read_partitions(out_dir: str) -> list[Partition]:
    parts = []
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("part="):
            continue
        pid = int(name[len("part="):])
        mpath = os.path.join(out_dir, "_manifest", f"part-{pid}.json")
        manifest = None
        if os.path.exists(mpath):
            with open(mpath) as f:
                manifest = json.load(f)
        table = pq.read_table(os.path.join(out_dir, name, "data.parquet"))
        parts.append(Partition(pid, manifest, table))
    return parts


def check_layout(parts: list[Partition], verdict: Verdict) -> None:
    """Manifest/row-count agreement and one home per document."""
    home = {}
    for part in parts:
        if part.manifest is None or part.manifest.get("pid") != part.pid:
            verdict.reject(f"part={part.pid}", "manifest missing or for another pid")
        elif part.manifest.get("num_docs") != part.table.num_rows:
            verdict.reject(f"part={part.pid}", "manifest num_docs != parquet rows")
        for doc_id in part.table["doc_id"].to_pylist():
            if doc_id in home:
                verdict.reject(doc_id, f"written to part={home[doc_id]} and part={part.pid}")
            home[doc_id] = part.pid


def explode(parts: list[Partition]) -> pa.Table:
    """One row per output span: ``ROW_COLUMNS``."""
    tables = [p.table.select(["doc_id", "spans"]) for p in parts]
    if not tables:
        return pa.table({c: pa.array([], pa.int32() if c == "order" else pa.string())
                         for c in ROW_COLUMNS})
    out = pa.concat_tables(tables).combine_chunks()
    spans = out["spans"].chunk(0)
    flat = pc.list_flatten(spans)
    return pa.table({
        "doc_id": pc.take(out["doc_id"], pc.list_parent_indices(spans)),
        "order": pc.struct_field(flat, "offset"),
        "kind": pc.struct_field(flat, "kind"),
        "text": pc.struct_field(flat, "text"),
        "media_ref": pc.struct_field(flat, "media_ref"),
    })


class OracleCheck:
    """Multiset equality with the SQL oracle over the documents table."""

    def __init__(self, documents_path: str):
        import duckdb

        import __ray_entry__

        self.con = duckdb.connect()
        self.con.register("documents", pq.read_table(documents_path))
        self.expected = self.con.execute(
            __ray_entry__.oracle_sql()["extract_align"]).arrow()
        self.con.register("expected", self.expected)

    def __call__(self, parts: list[Partition], verdict: Verdict) -> None:
        self.con.register("actual", explode(parts))
        cols = ", ".join(f'"{c}"' for c in ROW_COLUMNS)
        diff = self.con.execute(f"""
            SELECT doc_id, min(side) FROM (
              (SELECT {cols}, 'unexpected row' AS side FROM (
                 SELECT {cols} FROM actual EXCEPT ALL SELECT {cols} FROM expected))
              UNION ALL
              (SELECT {cols}, 'missing row' AS side FROM (
                 SELECT {cols} FROM expected EXCEPT ALL SELECT {cols} FROM actual)))
            GROUP BY doc_id""").fetchall()
        self.con.unregister("actual")
        for doc_id, why in diff:
            verdict.reject(doc_id, f"differs from the SQL oracle ({why})")


def check_longseg(out: dict, spans: list, refs: list) -> str | None:
    """Invariants of one long-segment document's output row; returns the
    first violation or None."""
    ref_offsets = {r["offset"] for r in refs}
    text_refs = sum(1 for r in refs if r["text"])
    cands = [s for s in spans if s["text"]]
    media_in = [s for s in spans if not s["text"]]
    offsets = [s["offset"] for s in out["spans"]]
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        return "offsets do not strictly increase"
    if not set(offsets) <= ref_offsets:
        return "an offset is not a reference offset"
    text_out = [s for s in out["spans"] if not s["media_ref"]]
    media_out = [s for s in out["spans"] if s["media_ref"]]
    if sorted(media_out, key=lambda s: s["offset"]) != sorted(media_in, key=lambda s: s["offset"]):
        return "media markers changed"
    for s in text_out:
        if not any(s["text"] in c["text"] and s["kind"] == c["kind"] for c in cands):
            return f"span at offset {s['offset']} is no slice of a candidate"
    if out["matched"] != len(text_out) or out["matched"] > out["total"]:
        return "matched disagrees with the text spans"
    if out["total"] != text_refs:
        return "total is not the reference line count"
    if not 0.0 <= out["mean_score"] <= 1.0:
        return "mean_score outside [0, 1]"
    return None


class GiantCheck:
    """Per-document checks of the giant workload."""

    def __init__(self, corpus_path: str, kinds: dict, seed: int, samples: int = 1):
        corpus = pq.read_table(corpus_path).to_pylist()
        self.docs = {r["doc_id"]: (r["spans"], r["ref_spans"]) for r in corpus}
        self.kinds = kinds
        longseg = sorted(d for d, k in kinds.items() if k == "longseg")
        rng = np.random.default_rng(seed)
        self.sampled = {longseg[int(i)] for i in
                        rng.choice(len(longseg), size=min(samples, len(longseg)), replace=False)}
        self.fresh = {}

    def _fresh(self, doc_id):
        if doc_id not in self.fresh:
            from nmalign_ray.document import process_document
            from nmalign_ray.schema import EngineConfig

            cfg = EngineConfig()
            spans, refs = self.docs[doc_id]
            self.fresh[doc_id] = process_document(spans, refs, cfg.align, cfg.salt_threshold)
        return self.fresh[doc_id]

    def __call__(self, parts: list[Partition], verdict: Verdict) -> None:
        rows = {}
        for part in parts:
            for row in part.table.to_pylist():
                rows.setdefault(row["doc_id"], row)
        for doc_id, (spans, refs) in self.docs.items():
            out = rows.get(doc_id)
            if out is None:
                verdict.reject(doc_id, "missing from the output")
                continue
            if self.kinds[doc_id] == "skewed":
                want = sorted(spans, key=lambda s: s["offset"])
                if out["spans"] != want or out["matched"] != len(refs):
                    verdict.reject(doc_id, "skewed output is not its input span list")
                continue
            why = check_longseg(out, spans, refs)
            if why is None and doc_id in self.sampled:
                fresh_spans, metrics = self._fresh(doc_id)
                if out["spans"] != fresh_spans or any(out[k] != v for k, v in metrics.items()):
                    why = "differs from an in-process process_document run"
            if why:
                verdict.reject(doc_id, why)


def check_round(out_dir: str, content_check) -> tuple[Verdict, list[Partition]]:
    verdict = Verdict()
    parts = read_partitions(out_dir)
    check_layout(parts, verdict)
    content_check(parts, verdict)
    return verdict, parts


# --- self-test ------------------------------------------------------------

def _with_spans(parts, doc_id, edit):
    """Copy of ``parts`` where ``doc_id``'s span list is ``edit(spans)``."""
    out = []
    for part in parts:
        rows = part.table.to_pylist()
        for row in rows:
            if row["doc_id"] == doc_id:
                row["spans"] = edit([dict(s) for s in row["spans"]])
        out.append(replace(part, table=pa.Table.from_pylist(rows, schema=part.table.schema)))
    return out


def _drop_first(spans):
    return spans[1:]


def _swap_first_two(spans):
    a, b = spans[0], spans[1]
    return [dict(b, offset=a["offset"]), dict(a, offset=b["offset"])] + spans[2:]


def _retarget_media(spans):
    return [dict(s, media_ref=s["media_ref"] + "#x") if s["media_ref"] else s
            for s in spans]


def self_test(parts: list[Partition], content_check) -> list[str]:
    """Corrupt a correct output four ways; return the corruptions the
    checks failed to reject (empty when every one is caught)."""
    rows = [r for p in parts for r in p.table.select(["doc_id", "spans"]).to_pylist()]
    # a text-only document with distinct texts: dropping or swapping its
    # spans changes its output whatever the workload checks about it
    two = next(r["doc_id"] for r in rows
               if len(r["spans"]) >= 2 and all(s["text"] for s in r["spans"])
               and len({s["text"] for s in r["spans"]}) == len(r["spans"]))
    media = next(r["doc_id"] for r in rows if any(s["media_ref"] for s in r["spans"]))
    src = next(p for p in parts if two in p.table["doc_id"].to_pylist())
    dst = next(p for p in parts if p is not src)
    row = src.table.filter(pc.equal(src.table["doc_id"], two))
    twice = [replace(p, table=pa.concat_tables([p.table, row]),
                     manifest=dict(p.manifest, num_docs=p.table.num_rows + 1))
             if p is dst else p for p in parts]
    mutants = {
        "dropped span": _with_spans(parts, two, _drop_first),
        "two spans swapped": _with_spans(parts, two, _swap_first_two),
        "changed media_ref": _with_spans(parts, media, _retarget_media),
        "document in two partitions": twice,
    }
    missed = []
    for name, mutant in mutants.items():
        verdict = Verdict()
        check_layout(mutant, verdict)
        content_check(mutant, verdict)
        if not verdict.bad_docs:
            missed.append(name)
    return missed
