"""Eval-mode extractor passes spread over the process's cores.

An eval-mode extractor pass reads the parameters and the batchnorm running
statistics and writes nothing that another pass reads, so passes over
different epochs can run at once. They run on threads: numpy releases the
interpreter lock inside its array loops and BLAS calls, which is where a
large pass spends its time. Each worker runs OpenBLAS at one thread through
``openblas_set_num_threads_local``, which sets the count for the calling
thread only, so the workers' GEMMs do not contend with BLAS threads of
their own for the same cores.

A small pass spends its time in the interpreter, not in numpy, so two
workers take turns on the lock and run slower than one; such passes, and
every pass where the setter or a second core is missing, run in a plain
loop on the calling thread.
"""

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor

from .blocks import STEM_STRIDE

# Stem-map values (epochs x stem channels x stem length) of one pass below
# which passes run in a plain loop. Best of five, 16 GradCAM passes of 9
# epochs on a 2-core box, serial against two workers: 51 / 71 ms at 8.6K
# values (the desk pass), 130 / 157 ms at 52K, 114 / 121 ms at 54K, then
# 174 / 158 ms at 81K and 339 / 204 ms at 108K; at 864K (the paper pass)
# 4.7 / 2.6 s, best of three. Desk scoring passes hold 31K.
MIN_PASS_VALUES = 100_000


@functools.cache
def _blas_threads_setter():
    """OpenBLAS's per-thread ``openblas_set_num_threads_local``, or None.

    Looked up once, in the libraries mapped into this process whose file
    name holds "blas"; None under another BLAS or where ``/proc`` is absent.
    """
    try:
        with open("/proc/self/maps") as f:
            # address, perms, offset, device, inode, then the path if any
            rows = [line.split(maxsplit=5) for line in f]
    except OSError:
        return None
    paths = {row[5].strip() for row in rows if len(row) == 6}
    for path in sorted(paths):
        if "blas" not in os.path.basename(path).lower():
            continue
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int  # the calling thread's previous count
        return setter
    return None


def pass_workers(cfg, epochs):
    """Threads for eval extractor passes of ``epochs`` epochs each.

    One per core of the process, or 1 (a plain loop on the calling thread)
    when a pass holds fewer than ``MIN_PASS_VALUES`` stem-map values, when
    the process has one core, or when OpenBLAS's per-thread setter is
    missing.
    """
    stem_values = (epochs * cfg.extractor.stage_widths[0]
                   * -(-cfg.epoch_len // STEM_STRIDE))
    if stem_values < MIN_PASS_VALUES or _blas_threads_setter() is None:
        return 1
    return len(os.sched_getaffinity(0))


def map_passes(run, parts, workers):
    """``[run(part) for part in parts]``, on up to ``workers`` threads.

    With one worker, or one part, this is that plain loop. Otherwise each
    thread sets its OpenBLAS thread count to 1 before its first pass.
    Every result is read, in order, so an exception raised in a worker
    reaches the caller. The pool lives for this call only: no thread
    outlives it, so none is alive when a caller later forks.
    """
    parts = list(parts)
    if workers < 2 or len(parts) < 2:
        return [run(part) for part in parts]
    setter = _blas_threads_setter()

    def one_blas_thread(part):
        setter(1)
        return run(part)

    with ThreadPoolExecutor(max_workers=min(workers, len(parts))) as pool:
        return list(pool.map(one_blas_thread, parts))
