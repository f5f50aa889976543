"""Host-speed normalisation of the benchmark's times.

On the shared 2-core host the benchmark was built on, other tenants
slow this process by 30-80% for stretches of seconds to minutes, in CPU
time as well as wall time, so that whole runs can land in a slow spell.
A small fixed pure-Python kernel slows by the same factor: over
15-second windows the ratio of an oracle-case block's time to the
kernel's time stayed within 4-6%, while the raw times moved by 40%.

``Timings`` therefore samples the kernel's time every ``SAMPLE_S``
seconds from a ``SIGALRM`` handler, which runs in the main thread
between bytecodes, also in the middle of a long ``certify`` call.  The
handler's own time is subtracted from the unit it interrupted.  Timed
units are grouped into blocks of about ``BLOCK_S``; a block's times are
scaled by ``REFERENCE_S`` over the mean kernel time sampled during it.
A reported time is what the work would take with the kernel at
``REFERENCE_S``, its time on an idle core of that host.  The kernel
shares no code with artinlink, so a change to the program moves the
times and never the scale.
"""

from __future__ import annotations

import signal
import statistics
import time

# The kernel's time (faster of two runs) on an idle core of the
# reference host, Python 3.11.
REFERENCE_S = 0.0016
SAMPLE_S = 0.1  # sampling costs about 3% of the run
BLOCK_S = 0.1


def reference_kernel() -> int:
    """Dict, tuple, sort and set work of the kind artinlink does."""
    counts: dict[tuple[int, int], int] = {}
    x = 12345
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 211, (x >> 8) % 211)
        counts[key] = counts.get(key, 0) + 1
    seen = set()
    for (a, b), v in sorted(counts.items()):
        seen.add((b, a, v))
    return len(seen)


def reference_time() -> float:
    """The faster of two kernel runs, so that one interrupt does not
    skew a sample."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return min(times)


class Timings:
    """Host-normalised execution times and output checks of one run.

    Use as a context manager: the sampler runs from ``__enter__`` to
    ``__exit__``, which also scales the last block.  ``call`` times one
    unit and files its time under ``bucket[key]``.
    """

    def __init__(self):
        self.unit_times: dict[object, list[float]] = {}
        self.fixed_times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.raw_s = 0.0  # summed unit times before and after scaling
        self.scaled_s = 0.0
        self._pending: list[tuple[dict, object, float]] = []
        self._pending_s = 0.0
        self._samples: list[float] = []
        self._stolen_s = 0.0  # time spent in the sampler
        self._previous_handler = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(reference_time())
        self._stolen_s += time.perf_counter() - start

    def __enter__(self) -> "Timings":
        self._samples.append(reference_time())
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._samples.append(reference_time())
        self._scale_block()

    def call(self, bucket: dict, key, fn, *args):
        """``fn(*args)``, timed without the sampler's share."""
        stolen = self._stolen_s
        start = time.perf_counter()
        result = fn(*args)
        raw_s = time.perf_counter() - start - (self._stolen_s - stolen)
        self._pending.append((bucket, key, raw_s))
        self._pending_s += raw_s
        if self._pending_s >= BLOCK_S and len(self._samples) > 1:
            self._scale_block()
        return result

    def _scale_block(self) -> None:
        samples, self._samples = self._samples, []
        scale = REFERENCE_S / statistics.fmean(samples)
        for bucket, key, raw_s in self._pending:
            bucket.setdefault(key, []).append(raw_s * scale)
        self.raw_s += self._pending_s
        self.scaled_s += self._pending_s * scale
        self._pending.clear()
        self._pending_s = 0.0
        self._samples.append(samples[-1])  # the next block starts here

    def slowdown(self) -> float:
        """How much slower the host ran than the reference speed."""
        return self.raw_s / self.scaled_s

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
