"""Spans around calls into docling_ray's layers, recorded from outside it.

``install`` wraps public layer functions (module attributes, so call sites
that look them up at call time see the wrapper) with a span recorder.  In
Ray workers it runs as the ``worker_process_setup_hook`` of a traced
session; in the driver it runs around the traced job only.  Each span is
``(name, start, end, parent, id)`` plus the run id; a process keeps its spans
in memory and appends them to ``<span dir>/<pid>.jsonl`` whenever its
outermost span closes, i.e. once per batch.  Top-level spans in a worker
are parented to the driver's root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time

ENV_DIR = "PERFBENCH_SPAN_DIR"
ENV_RUN = "PERFBENCH_RUN_ID"
ROOT_SPAN = "root"

# (module, attribute, span name): the span name is the layer's module name
TARGETS = [
    ("docling_ray.stages.extract", "extract_and_project", "stages.extract"),
    ("docling_ray.stages.extract", "sniff_batch", "stages.extract.sniff"),
    ("docling_ray.stages.extract", "hash_batch", "stages.extract.hash"),
    ("docling_ray.stages.extract", "extract_html", "kernels.html_extract"),
    ("docling_ray.kernels.html_extract", "parse_html", "dom"),
    ("docling_ray.stages.extract", "to_markdown", "kernels.markdown"),
    ("docling_ray.kernels.docjson_write", "to_docjson", "kernels.docjson_write"),
    ("docling_ray.kernels.docjson", "load_docjson", "kernels.docjson"),
    ("docling_ray.stages.chunk", "chunk_batch", "stages.chunk"),
    ("docling_ray.stages.chunk", "chunk_document", "kernels.chunker"),
    ("docling_ray.stages.dedup", "MinHashStage.__call__", "stages.dedup.minhash"),
    ("docling_ray.stages.dedup", "band_explode", "stages.dedup.band_explode"),
    ("docling_ray.stages.dedup", "lsh_partition_pairs", "stages.dedup.lsh_pairs"),
    ("docling_ray.pipelines.corpus", "DropUrls.__call__", "pipelines.corpus.drop"),
    ("docling_ray.sources.warc", "parse_warc", "sources.warc"),
    ("docling_ray.stages.scan", "WarcExplodeStage.__call__", "stages.scan"),
]
# driver-only: functions the pipeline calls in the driver process
DRIVER_TARGETS = [
    ("docling_ray.state.manifest", "remaining", "state.manifest"),
    ("docling_ray.state.manifest", "mark_done", "state.manifest"),
    ("docling_ray.state.manifest", "load_done", "state.manifest"),
]


class Recorder:
    """One process's span stack and buffer."""

    def __init__(self, span_dir: str, run_id: str):
        self.span_dir = span_dir
        self.run_id = run_id
        self.local = threading.local()
        self.ids = itertools.count()
        self.buf: list = []
        self.lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self.local, "stack"):
            self.local.stack = []
        return self.local.stack

    def open(self, name: str) -> tuple:
        stack = self._stack()
        sid = f"{os.getpid()}-{next(self.ids)}"
        parent = stack[-1] if stack else ROOT_SPAN
        stack.append(sid)
        return name, time.time(), parent, sid

    def close(self, token: tuple) -> None:
        name, start, parent, sid = token
        end = time.time()
        stack = self._stack()
        stack.pop()
        with self.lock:
            self.buf.append([name, start, end, parent, sid, self.run_id])
            if stack:
                return
            lines, self.buf = self.buf, []
        with open(os.path.join(self.span_dir, f"{os.getpid()}.jsonl"), "a") as f:
            f.write("".join(json.dumps(s) + "\n" for s in lines))

    def wrap(self, fn, name: str):
        rec = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per resumption, so consumer time is not counted
                it = fn(*args, **kwargs)
                while True:
                    token = rec.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec.close(token)
                    yield item

            gen_wrapper.__perfbench_original__ = fn
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(token)

        wrapper.__perfbench_original__ = fn
        return wrapper


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(targets=None, span_dir: str | None = None,
            run_id: str | None = None) -> None:
    """Wrap every target once (idempotent).  Defaults come from the
    environment, which is how a Ray worker receives them."""
    rec = Recorder(span_dir or os.environ[ENV_DIR],
                   run_id or os.environ.get(ENV_RUN, "run"))
    for module, attr, name in (TARGETS if targets is None else targets):
        owner, leaf = _resolve(module, attr)
        fn = getattr(owner, leaf)
        if not hasattr(fn, "__perfbench_original__"):
            setattr(owner, leaf, rec.wrap(fn, name))


def uninstall(targets) -> None:
    for module, attr, _ in targets:
        owner, leaf = _resolve(module, attr)
        fn = getattr(owner, leaf)
        if hasattr(fn, "__perfbench_original__"):
            setattr(owner, leaf, fn.__perfbench_original__)


def worker_hook() -> None:
    install()


def runtime_env(span_dir: str, run_id: str) -> dict:
    return {"worker_process_setup_hook": worker_hook,
            "env_vars": {ENV_DIR: span_dir, ENV_RUN: run_id}}


def load_spans(span_dir: str) -> list[dict]:
    spans = []
    for f in sorted(os.listdir(span_dir)):
        if f.endswith(".jsonl"):
            with open(os.path.join(span_dir, f)) as fh:
                for line in fh:
                    name, start, end, parent, sid, run = json.loads(line)
                    spans.append({"name": name, "start": start, "end": end,
                                  "parent": parent, "id": sid, "run": run})
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span id: duration minus the union of its children's intervals
    (clipped to the span)."""
    kids: dict[str, list] = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        ivals = sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                       for c in kids.get(s["id"], ()))
        covered, cur_s, cur_e = 0.0, None, None
        for a, b in ivals:
            if b <= a:
                continue
            if cur_e is None or a > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = a, b
            else:
                cur_e = max(cur_e, b)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
