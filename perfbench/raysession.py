"""Local Ray sessions with a pinned CPU count, started and fully stopped by
the benchmark process."""

from __future__ import annotations

import logging
import os
import tempfile
import time

import procfs

OBJECT_STORE_BYTES = 512 * 2**20
_SOCKET_TAIL = 66    # /session_<date>_<time>_<us>_<pid>/sockets/plasma_store
_AF_UNIX_MAX = 107


class RaySessions:
    """Owns the Ray temp dir and every session this run starts.

    The temp dir is ``preferred`` when its socket paths fit the AF_UNIX
    limit; on a checkout path too long for that, a short private dir under
    the system temp dir is used and removed at close."""

    def __init__(self, preferred: str):
        if len(preferred) + _SOCKET_TAIL <= _AF_UNIX_MAX:
            os.makedirs(preferred, exist_ok=True)
            self.temp_dir, self._owned = preferred, False
        else:
            self.temp_dir, self._owned = tempfile.mkdtemp(prefix="pb-"), True

    def start(self, cpus: int, runtime_env: dict | None = None) -> None:
        import ray
        import ray.data

        ray.init(address="local", num_cpus=cpus, include_dashboard=False,
                 object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=self.temp_dir, log_to_driver=False,
                 logging_level=logging.WARNING, runtime_env=runtime_env)
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def stop(self) -> None:
        """``ray.shutdown`` and wait until every process it owned is gone."""
        import ray

        if not ray.is_initialized():
            return
        pids = procfs.descendants()[1:]
        ray.shutdown()
        procfs.wait_gone(pids)

    def close(self) -> None:
        self.stop()
        if self._owned:
            import shutil

            shutil.rmtree(self.temp_dir, ignore_errors=True)


def warm_up(shard: str) -> None:
    """One extraction pass over one small shard: spawns the workers and
    imports the kernels in them."""
    from docling_ray.pipelines.extract_pipeline import extract_path

    extract_path(shard).count()


def timed_setup(sessions: RaySessions, cpus: int, shard: str,
                runtime_env: dict | None = None) -> float:
    """Seconds from ``ray.init`` to the end of the warm-up pass."""
    t0 = time.perf_counter()
    sessions.start(cpus, runtime_env=runtime_env)
    warm_up(shard)
    return time.perf_counter() - t0
