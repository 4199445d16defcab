"""The benchmark's workloads: seeded inputs, one batch job each, output checks.

Every input is generated by this (single-threaded) process from the
workload seed and cached per (workload, seed, size) under the benchmark's
work directory; generation time counts in no metric.  A job calls the
pipeline's public entry point once; ``check`` then compares the job's
output with generator-side expectations (never with a second run of the
pipeline) and returns the number of documents whose output is wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

DEFAULT_SEED = 42
ROWS_PER_FILE = 500          # input shards per pages corpus
WARM_DOCS = 256              # the one-shard warm-up pass behind setup_s
MIN_DOC_TOKENS = 30          # run_corpus's default quality floor
EXTRACT_COLUMNS = ["url", "doc_id", "status", "n_items", "extracted_text"]

_HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(_HERE, "pinned.json")


def _cached(path: str, build) -> str:
    """Build ``path`` once: into a private temp dir, renamed into place
    only when complete, so a killed run never leaves a half corpus."""
    if os.path.isdir(path):
        return path
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    try:
        os.rename(tmp, path)
    except OSError:                      # lost a race: another copy exists
        shutil.rmtree(tmp, ignore_errors=True)
    return path


def warm_corpus(cache: str, seed: int) -> str:
    """One small pages shard for the warm-up pass."""
    from docling_ray.sources.webpages import write_corpus

    d = _cached(os.path.join(cache, f"warm-s{seed}"),
                lambda tmp: write_corpus(tmp, WARM_DOCS, seed=seed + 1,
                                         rows_per_file=WARM_DOCS))
    return os.path.join(d, "part-00000.parquet")


def pages_corpus(cache: str, seed: int, n: int, skewed: bool) -> str:
    """A ``write_corpus`` (or ``write_skewed_corpus``) directory of n docs."""
    from docling_ray.sources.webpages import write_corpus, write_skewed_corpus

    writer = write_skewed_corpus if skewed else write_corpus
    kind = "skewed" if skewed else "pages"
    return _cached(os.path.join(cache, f"{kind}-s{seed}-n{n}"),
                   lambda tmp: writer(tmp, n, seed=seed,
                                      rows_per_file=ROWS_PER_FILE))


def warc_table(cache: str, seed: int, n: int, records_per_chunk: int) -> str:
    """A ``make_warc_table`` parquet file, one WARC chunk per row group."""
    from docling_ray.sources.warc import make_warc_table

    d = _cached(os.path.join(cache, f"warc-s{seed}-n{n}-r{records_per_chunk}"),
                lambda tmp: pq.write_table(
                    make_warc_table(n, seed=seed,
                                    records_per_chunk=records_per_chunk),
                    os.path.join(tmp, "warc.parquet"), row_group_size=1))
    return os.path.join(d, "warc.parquet")


def expected_extract(cache: str, seed: int, n: int) -> pa.Table:
    from docling_ray.sources.webpages import make_expected_table

    path = os.path.join(cache, f"expected-s{seed}-n{n}")
    _cached(path, lambda tmp: pq.write_table(
        make_expected_table(n, seed=seed), os.path.join(tmp, "e.parquet")))
    return pq.read_table(os.path.join(path, "e.parquet"))


def url_digest(urls, texts) -> str:
    """sha-256 over the url-sorted ``url \\t sha256(text)`` lines: one value
    that changes if any document's extracted text changes by one byte."""
    h = hashlib.sha256()
    for url, text in sorted(zip(urls, texts)):
        h.update(f"{url}\t{hashlib.sha256(text.encode()).hexdigest()}\n"
                 .encode())
    return h.hexdigest()


def check_extracted(got: pa.Table, expected: pa.Table, pin_key: str,
                    seed: int) -> tuple[int, dict]:
    """Docs whose ``(url, doc_id, status, n_items)`` differs from the
    generator's expected table, is missing, or is duplicated.  For the
    default seed the text digest must also equal the pinned value; a
    mismatch there fails every document (it cannot name which)."""
    want = {u: (d, s, k) for u, d, s, k in zip(
        *(expected[c].to_pylist() for c in ("url", "doc_id", "status",
                                            "n_items")))}
    urls = got["url"].to_pylist()
    have: dict = {}
    bad: set = set()
    for u, d, s, k in zip(urls, *(got[c].to_pylist() for c in
                                  ("doc_id", "status", "n_items"))):
        if u in have or u not in want:
            bad.add(u)                   # duplicated or unexpected row
        have[u] = (d, s, k)
    bad |= {u for u, row in want.items() if have.get(u) != row}
    info = {"rows": got.num_rows, "bad_docs": len(bad)}
    if seed == DEFAULT_SEED:
        digest = url_digest(urls, got["extracted_text"].to_pylist())
        with open(PINNED_PATH) as f:
            pinned = json.load(f).get(pin_key)
        info.update(digest=digest, pinned=pinned)
        if digest != pinned:
            return len(want), info
    return min(len(bad), len(want)), info


class Convert:
    """``run_extract`` over a seeded ``write_corpus`` table → parquet
    partitioned by shard, plus the manifest."""

    name = "convert"
    docs = 3000

    def prepare(self, cache: str, seed: int) -> dict:
        return {"pages": pages_corpus(cache, seed, self.docs, skewed=False),
                "expected": expected_extract(cache, seed, self.docs)}

    def run(self, inputs: dict, out_dir: str):
        from docling_ray.pipelines.extract_pipeline import run_extract

        return run_extract(inputs["pages"], out_dir)

    def check(self, inputs: dict, out_dir: str, seed: int,
              result) -> tuple[int, dict]:
        got = pq.read_table(os.path.join(out_dir, "data"),
                            columns=EXTRACT_COLUMNS)
        return check_extracted(got, inputs["expected"],
                               f"{self.name}-n{self.docs}", seed)


class Curate:
    """``run_corpus`` over a seeded ``write_skewed_corpus`` table: extract
    with doc_json → exact-dup losers → MinHash-LSH pairs → anti-filter →
    chunk."""

    name = "curate"
    docs = 1000

    def prepare(self, cache: str, seed: int) -> dict:
        return {"pages": pages_corpus(cache, seed, self.docs, skewed=True),
                "expected": self._expected(cache, seed)}

    def _expected(self, cache: str, seed: int) -> dict:
        """Generator-side truth: the family non-winners (every family
        member but its smallest url) and each url's expected chunk rows —
        a family member carries its template's chunks."""
        from docling_ray.sources.webpages import (DUP_FAMILIES, make_rows,
                                                  skewed_family_of)

        def build(tmp: str) -> None:
            data, _, chunks, _, _ = make_rows(0, self.docs, seed=seed,
                                              with_expected=True)
            urls = data["url"]
            families: dict[int, list[str]] = {}
            rows = {}
            for i, url in enumerate(urls):
                f = skewed_family_of(i)
                if f >= 0:
                    families.setdefault(f, []).append(url)
                rows[url] = chunks[DUP_FAMILIES[f][1] if f >= 0 else i]
            losers = sorted(u for members in families.values()
                            for u in members if u != min(members))
            with open(os.path.join(tmp, "expected.json"), "w") as fh:
                json.dump({"urls": urls, "losers": losers, "chunks": rows}, fh)

        path = _cached(os.path.join(cache, f"curate-expected-s{seed}-n{self.docs}"),
                       build)
        with open(os.path.join(path, "expected.json")) as fh:
            return json.load(fh)

    def run(self, inputs: dict, out_dir: str):
        from docling_ray.pipelines.corpus import run_corpus

        return run_corpus(inputs["pages"], out_dir)

    def check(self, inputs: dict, out_dir: str, seed: int,
              result) -> tuple[int, dict]:
        exp = inputs["expected"]
        losers = read_column(os.path.join(out_dir, "exact_losers"), "url")
        doc_b = read_column(os.path.join(out_dir, "pairs"), "doc_b")
        want_losers = set(exp["losers"])
        bad = set(losers) ^ want_losers
        drop = set(losers) | set(doc_b)
        want: dict[str, list] = {}
        for url in exp["urls"]:
            rows = exp["chunks"][url]
            if url not in drop and sum(t for _, t in rows) >= MIN_DOC_TOKENS:
                want[url] = [[i, t, k] for i, (k, t) in enumerate(rows)]
        got_tbl = read_table(os.path.join(out_dir, "chunks"),
                              ["url", "chunk_id", "n_tokens", "kind"])
        have: dict[str, list] = {}
        for u, i, t, k in zip(*(got_tbl[c].to_pylist() for c in got_tbl.column_names)):
            have.setdefault(u, []).append([i, t, k])
        for rows in have.values():
            rows.sort()
        bad |= {u for u in set(want) | set(have) if want.get(u) != have.get(u)}
        surviving_losers = want_losers & set(have)
        bad |= surviving_losers
        info = {"exact_losers": len(losers), "expected_losers": len(want_losers),
                "pairs": len(doc_b), "chunk_rows": got_tbl.num_rows,
                "surviving_family_losers": len(surviving_losers),
                "bad_docs": len(bad), "stage_timings": result["timings"]}
        return min(len(bad), self.docs), info


def read_table(path: str, columns: list[str]) -> pa.Table:
    files = sorted(f for f in os.listdir(path) if f.endswith(".parquet")) \
        if os.path.isdir(path) else []
    tables = [pq.read_table(os.path.join(path, f), columns=columns)
              for f in files]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return pa.concat_tables(tables, promote_options="permissive")


def read_column(path: str, column: str) -> list:
    return read_table(path, [column])[column].to_pylist()


WORKLOADS = {w.name: w for w in (Convert(), Curate())}
