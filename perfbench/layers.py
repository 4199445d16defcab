"""The traced run (``--trace 1``): per-layer metrics for one workload.

Three Ray sessions, in order:

A. pinned CPUs, untraced: the workload's job once (the untraced wall for
   ``trace.overhead``), then the Ray-stage probes, each a public call timed
   on the first ``PROBE_DOCS`` docs of the workload's corpus.
B. pinned CPUs, traced: the workload's job once with spans around the
   layer calls (``tracing.py``) → ``trace.overhead`` and ``trace.coverage``.
C. 1 CPU: ``run_extract`` and the same read + extraction ending in a count,
   over the same probe docs, to reconcile the kernel sum with the
   single-worker wall.

The kernel rows are per-doc CPU of the benchmark process itself: best-of-N
``time.process_time`` over a fixed sample of the workload's docs.
Every probe runs for every workload, so each traced run reports the full
per-layer set; NOTES.md says which workload each number informs.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

import tracing
import workloads
from raysession import timed_setup, warm_up

PROBE_DOCS = 1000
SAMPLE_DOCS = 200
KERNEL_REPS = 5
EXCHANGE_REPS = 2
WRITE_REPS = 3
RECONCILE_REPS = 2
PROBE_WARC_RECORDS = 125
PAGE_COLUMNS = ["url", "warc_ts", "html", "lang"]


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _best_cpu_s(fn, reps: int = KERNEL_REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best


def kernel_probes(sample: pa.Table, warc_chunks: list[bytes]) -> dict:
    """Per-doc CPU ms of each kernel on the sample, in this process."""
    from docling_ray.dom import parse_html
    from docling_ray.kernels.chunker import chunk_document
    from docling_ray.kernels.docjson import load_docjson
    from docling_ray.kernels.docjson_write import to_docjson
    from docling_ray.kernels.html_extract import extract_html
    from docling_ray.kernels.markdown import to_markdown
    from docling_ray.sources.warc import parse_warc
    from docling_ray.stages.dedup import MinHashStage
    from docling_ray.stages.extract import (extract_and_project, hash_batch,
                                            sniff_batch)

    raws = sample["html"].to_pylist()
    n = len(raws)
    docs = [extract_html(r) for r in raws]
    jsons = [to_docjson(d) for d in docs]
    html_only = sample.select(["html"])
    minhash_in = pa.table({"doc_id": sample["url"],
                           "text": pa.array([to_markdown(d) for d in docs],
                                            pa.large_string())})
    minhash = MinHashStage()
    n_records = sum(len(parse_warc(c)) for c in warc_chunks)

    def ms(fn, count: int = n) -> float:
        return 1000 * _best_cpu_s(fn) / count

    parse = ms(lambda: [parse_html(r) for r in raws])
    return {
        "stages.extract.sniff_hash_ms": ms(
            lambda: hash_batch(sniff_batch(html_only))),
        "dom.parse_ms": parse,
        "kernels.html_extract.walk_ms":
            ms(lambda: [extract_html(r) for r in raws]) - parse,
        "kernels.markdown.serialize_ms": ms(lambda: [to_markdown(d) for d in docs]),
        "stages.extract.batch_ms": ms(lambda: extract_and_project(sample)),
        "kernels.docjson_write.write_ms": ms(lambda: [to_docjson(d) for d in docs]),
        "kernels.docjson.load_ms": ms(lambda: [load_docjson(j) for j in jsons]),
        "kernels.chunker.chunk_ms": ms(lambda: [chunk_document(d) for d in docs]),
        "stages.dedup.minhash_ms": ms(lambda: minhash(minhash_in)),
        "sources.warc.parse_ms": ms(
            lambda: [parse_warc(c) for c in warc_chunks], n_records),
    }


def _rows(path: str) -> int:
    return sum(pq.ParquetFile(os.path.join(path, f)).metadata.num_rows
               for f in os.listdir(path) if f.endswith(".parquet")) \
        if os.path.isdir(path) else 0


def _pairs_input(batch: pa.Table) -> pa.Table:
    return pa.table({"doc_id": batch["url"], "text": batch["extracted_text"]})


def _identity(batch: pa.Table) -> pa.Table:
    return batch


def write_split(pages: str, out: str, reps: int) -> tuple[float, float, dict]:
    """Median walls of ``run_extract`` and of the same read + extraction
    (same blocks, same batch size) ending in a count instead of the
    partitioned write and manifest; the two are alternated."""
    from docling_ray.pipelines.extract_pipeline import (extract_dataset,
                                                        read_web_pages,
                                                        run_extract)

    run_s, read_s = [], []
    for _ in range(reps):
        read_s.append(_timed(lambda: extract_dataset(
            read_web_pages(pages, include_paths=True), batch_size=64).count()))
        shutil.rmtree(out, ignore_errors=True)
        run_s.append(_timed(lambda: run_extract(pages, out)))
    return (statistics.median(run_s), statistics.median(read_s),
            {"run_extract": run_s, "same_read_count": read_s})


def ray_probes(pages: str, warc: str, work: str, cpus: int) -> tuple[dict, dict]:
    """Walls and row counts of single public calls at the pinned CPUs."""
    import ray.data

    from docling_ray.pipelines.corpus import run_corpus
    from docling_ray.pipelines.extract_pipeline import (default_num_blocks,
                                                        extract_path,
                                                        read_web_pages,
                                                        run_extract)
    from docling_ray.stages.chunk import chunk_dataset
    from docling_ray.stages.dedup import exact_dedup_losers, minhash_near_dups
    from docling_ray.stages.scan import warc_explode

    probe = os.path.join(work, "probe")
    shutil.rmtree(probe, ignore_errors=True)
    m, d = {}, {}
    n = _rows(pages)
    noop_s = _timed(lambda: read_web_pages(
        pages, override_num_blocks=default_num_blocks())
        .map_batches(_identity, batch_format="pyarrow").count())
    count_s = _timed(lambda: extract_path(pages).count())
    out = os.path.join(probe, "extract")
    run_s, read_s, d["write_walls_s"] = write_split(pages, out, WRITE_REPS)
    m["ray.noop_docs_per_s"] = n / noop_s
    m["pipelines.extract_pipeline.count_docs_per_s"] = n / count_s
    m["write.s"] = run_s - read_s
    m["write.share"] = (run_s - read_s) / run_s
    m["state.manifest.resume_s"] = _timed(lambda: run_extract(pages, out))
    pages_out = []
    explode_s = _timed(lambda: pages_out.append(
        warc_explode(ray.data.read_parquet(warc)).count()))
    m["stages.scan.explode_pages_per_s"] = pages_out[0] / explode_s

    corpus = os.path.join(probe, "corpus")
    timings = run_corpus(pages, corpus)["timings"]
    d["run_corpus_timings"] = timings
    m["pipelines.corpus.decisions_overlap"] = (
        (timings["dedup_sec"] + timings["minhash_sec"])
        / timings["decisions_wall_sec"])
    losers = workloads.read_column(os.path.join(corpus, "exact_losers"), "url")
    doc_b = workloads.read_column(os.path.join(corpus, "pairs"), "doc_b")
    m["drop_set.size"] = len(set(losers) | set(doc_b))
    m["drop_set.useful_ratio"] = (m["drop_set.size"] / (len(losers) + len(doc_b))
                                  if losers or doc_b else 1.0)

    ckpt = os.path.join(corpus, "extracted", "data")
    proj = ray.data.read_parquet(ckpt, columns=["doc_id", "url"]).materialize()
    rows = proj.count()
    quarter = proj.limit(rows // 4).materialize()

    def exchange(ds) -> float:
        return min(_timed(lambda: exact_dedup_losers(
            ds, key_column="doc_id", order_column="url").count())
            for _ in range(EXCHANGE_REPS))

    t_full, t_quarter = exchange(proj), exchange(quarter)
    per_row = (t_full - t_quarter) / (rows - rows // 4)
    m["exchange.fixed_s"] = t_full - per_row * rows
    m["exchange.per_krow_ms"] = per_row * 1e6      # s/row → ms/1000 rows
    m["exchange.rows"] = rows
    d["exchange_walls_s"] = {"full": t_full, "quarter": t_quarter}

    losers_dir = os.path.join(probe, "exact_losers")
    m["stages.dedup.exact_losers_s"] = _timed(lambda: exact_dedup_losers(
        ray.data.read_parquet(ckpt, columns=["doc_id", "url"]),
        key_column="doc_id", order_column="url").write_parquet(losers_dir))
    m["stages.dedup.exact_losers"] = _rows(losers_dir)
    pairs_dir = os.path.join(probe, "pairs")
    m["stages.dedup.minhash_pairs_s"] = _timed(lambda: minhash_near_dups(
        ray.data.read_parquet(ckpt, columns=["url", "extracted_text"])
        .map_batches(_pairs_input, batch_format="pyarrow"),
        threshold=0.7, concurrency=max(4, cpus // 2), emit="star")
        .write_parquet(pairs_dir))
    m["stages.dedup.pairs"] = _rows(pairs_dir)
    chunks = []
    m["stages.chunk.chunk_s"] = _timed(lambda: chunks.append(
        chunk_dataset(ray.data.read_parquet(ckpt)).count()))
    m["stages.chunk.chunks"] = chunks[0]
    return m, d


def traced_job(wl, inputs: dict, args, sessions, warm: str, work: str):
    """Session B: the job once with spans; returns (wall, spans, result)."""
    run_id = f"{wl.name}-{args.seed}-{int(time.time())}"
    span_dir = os.path.join(work, "spans", run_id)
    os.makedirs(span_dir)
    timed_setup(sessions, args.ray_cpus, warm,
                runtime_env=tracing.runtime_env(span_dir, run_id))
    for f in os.listdir(span_dir):              # warm-up spans
        os.remove(os.path.join(span_dir, f))
    out_dir = os.path.join(work, "out", f"{wl.name}-traced")
    shutil.rmtree(out_dir, ignore_errors=True)
    tracing.install(tracing.DRIVER_TARGETS, span_dir, run_id)
    try:
        t0 = time.time()
        result = wl.run(inputs, out_dir)
        t1 = time.time()
    finally:
        tracing.uninstall(tracing.DRIVER_TARGETS)
    sessions.stop()                # every worker has flushed its spans
    spans = [s for s in tracing.load_spans(span_dir) if s["start"] >= t0]
    spans.append({"name": "pipelines", "start": t0, "end": t1,
                  "parent": None, "id": tracing.ROOT_SPAN, "run": run_id})
    shutil.rmtree(span_dir, ignore_errors=True)
    return t1 - t0, spans, (out_dir, result)


def traced_run(wl, inputs: dict, args, sessions, warm: str, work: str) -> dict:
    cache = os.path.join(work, "cache")
    pages = workloads.pages_corpus(cache, args.seed, PROBE_DOCS,
                                   skewed=wl.name == "curate")
    warc = workloads.warc_table(cache, args.seed, PROBE_DOCS, PROBE_WARC_RECORDS)
    metrics: dict = {}
    detail: dict = {}
    failed = 0

    # A: untraced job + Ray-stage probes
    timed_setup(sessions, args.ray_cpus, warm)
    out_dir = os.path.join(work, "out", wl.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    result = wl.run(inputs, out_dir)
    untraced = time.perf_counter() - t0
    failed += wl.check(inputs, out_dir, args.seed, result)[0]
    probe_m, detail["probes"] = ray_probes(pages, warc, work, args.ray_cpus)
    metrics.update(probe_m)
    sessions.stop()

    sample = pq.read_table(os.path.join(pages, "part-00000.parquet"),
                           columns=PAGE_COLUMNS).slice(0, SAMPLE_DOCS)
    warc_chunks = pq.read_table(warc)["warc"].to_pylist()
    metrics.update(kernel_probes(sample, warc_chunks))

    # B: traced job
    traced, spans, (out_dir, result) = traced_job(wl, inputs, args, sessions,
                                                  warm, work)
    failed += wl.check(inputs, out_dir, args.seed, result)[0]
    selfs = tracing.self_times(spans)
    layer_self: dict[str, float] = {}
    for s in spans:
        layer_self[s["name"]] = layer_self.get(s["name"], 0.0) + selfs[s["id"]]
    covered = sum(v for k, v in layer_self.items() if k != "pipelines")
    metrics["trace.overhead"] = traced / untraced - 1
    metrics["trace.coverage"] = covered / (traced * args.ray_cpus)
    detail.update(untraced_wall_s=untraced, traced_wall_s=traced,
                  n_spans=len(spans), layer_self_s=layer_self)

    # C: one CPU — does kernel time × docs + write account for the wall?
    sessions.start(1)
    warm_up(warm)
    run1, read1, detail["reconcile"] = write_split(
        pages, os.path.join(work, "probe", "extract_1cpu"), RECONCILE_REPS)
    sessions.stop()
    kernel_sum = sum(metrics[k] for k in (
        "stages.extract.sniff_hash_ms", "dom.parse_ms",
        "kernels.html_extract.walk_ms", "kernels.markdown.serialize_ms"))
    predicted = kernel_sum * PROBE_DOCS / 1000 + (run1 - read1)
    metrics["reconcile.gap"] = predicted / run1 - 1
    detail["reconcile"].update(kernel_sum_ms_per_doc=kernel_sum,
                               predicted_s=predicted)

    return {"metrics": {k: (metrics[k], unit) for k, unit in UNITS.items()},
            "attempted": 2 * wl.docs, "failed": failed, "detail": detail}


UNITS = {
    "stages.extract.sniff_hash_ms": "ms/doc",
    "dom.parse_ms": "ms/doc",
    "kernels.html_extract.walk_ms": "ms/doc",
    "kernels.markdown.serialize_ms": "ms/doc",
    "stages.extract.batch_ms": "ms/doc",
    "kernels.docjson_write.write_ms": "ms/doc",
    "kernels.docjson.load_ms": "ms/doc",
    "kernels.chunker.chunk_ms": "ms/doc",
    "stages.dedup.minhash_ms": "ms/doc",
    "sources.warc.parse_ms": "ms/record",
    "ray.noop_docs_per_s": "docs/s",
    "pipelines.extract_pipeline.count_docs_per_s": "docs/s",
    "write.s": "s",
    "write.share": "ratio",
    "state.manifest.resume_s": "s",
    "stages.scan.explode_pages_per_s": "pages/s",
    "exchange.fixed_s": "s",
    "exchange.per_krow_ms": "ms/krow",
    "exchange.rows": "count",
    "stages.dedup.exact_losers_s": "s",
    "stages.dedup.exact_losers": "count",
    "stages.dedup.minhash_pairs_s": "s",
    "stages.dedup.pairs": "count",
    "stages.chunk.chunk_s": "s",
    "stages.chunk.chunks": "count",
    "pipelines.corpus.decisions_overlap": "ratio",
    "drop_set.size": "count",
    "drop_set.useful_ratio": "ratio",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "reconcile.gap": "ratio",
}
"""Every per-layer metric of a traced run, with its unit."""
