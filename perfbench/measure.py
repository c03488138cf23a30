"""One item's attempt and the failure-aware summary of a run's items.

Failures count against attempts.  An item fails when the library raises or
when its results do not pass the workload's checks.  A failed item adds
its time to the run but no count to ``items_per_s``, counts as missing
every latency limit in ``item_p50_s`` and ``item_tail_s``, and withholds
``peak_rss_mb``, so a run whose items fail never reads faster or smaller
than one whose items verify.
"""

from __future__ import annotations

import math
import os
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from spans import LAYERS, LIBRARY

# A run that verified no item reports half an item, so that items_per_s stays
# positive and below that of any run that verified one item in the same time.
NO_ITEM_COUNT = 0.5


@dataclass
class Outcome:
    seconds: float                  # wall time of the item's library calls
    failure: str | None = None      # why the item failed; None if it verified
    wrong: bool = False             # the library returned results that failed the checks
    texts: list[str] = field(default_factory=list)   # canonical JSON of the results

    @property
    def verified(self) -> bool:
        return self.failure is None


def _library_frames(tb) -> list[str]:
    """``module.function`` of each library frame, outermost first."""
    out = []
    for frame, _ in traceback.walk_tb(tb):
        module = frame.f_globals.get("__name__", "")
        if module.startswith(LIBRARY + "."):
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name)   # 3.11+
            out.append(f"{module[len(LIBRARY) + 1:]}.{name}")
    return out


def describe_failure(exc: BaseException) -> str:
    """The exception type, where it was raised and the layers it passed."""
    frames = _library_frames(exc.__traceback__)
    via = [f for f in frames[:-1] if f in LAYERS]
    text = f"{type(exc).__name__} in {frames[-1]}"
    return text + (" via " + " > ".join(via) if via else "")


def attempt(workload, item, tracer=None) -> Outcome:
    """Run one item, time its library calls and check its results.

    An exception raised inside the library fails the item; one raised
    without passing through the library is a fault of the benchmark and
    propagates.
    """
    scope = tracer.item() if tracer is not None else nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            texts, facts = workload.call(item)
    except Exception as exc:            # the item failed; the run goes on
        seconds = time.perf_counter() - start
        if not _library_frames(exc.__traceback__):
            raise
        return Outcome(seconds, describe_failure(exc))
    seconds = time.perf_counter() - start
    problems = workload.check(item, facts)
    if problems:
        return Outcome(seconds, "wrong result: " + ", ".join(problems),
                       wrong=True, texts=texts)
    return Outcome(seconds, texts=texts)


def summarize(outcomes: list[Outcome], peak_rss_mb: float,
              rss_ceiling_mb: float) -> tuple[dict[str, float], dict]:
    """End-to-end item metrics and the facts behind them.

    A failed item's latency is censored at the run's total item time, which
    no single item can exceed, so percentiles that reach a failed item read
    as the worst value the run could show.  ``peak_rss_mb`` is the process
    peak only when every item verified and otherwise the memory ceiling.
    """
    n = len(outcomes)
    if n == 0:
        raise ValueError("a run attempts at least one item")
    wall = sum(o.seconds for o in outcomes)
    verified = sum(o.verified for o in outcomes)
    censored = sorted(o.seconds if o.verified else math.inf for o in outcomes)
    p50 = statistics.median(censored)
    # the highest order statistic with 10 samples beyond it; the maximum
    # when that one would not lie above the median
    tail_rank = n - 11 if n > 20 else n - 1
    tail = censored[tail_rank]
    metrics = {
        "items_per_s": (verified or NO_ITEM_COUNT) / wall,
        "item_p50_s": wall if math.isinf(p50) else p50,
        "item_tail_s": wall if math.isinf(tail) else tail,
        "peak_rss_mb": peak_rss_mb if verified == n else rss_ceiling_mb,
    }
    facts = {
        "samples": n,
        "verified": verified,
        "item_wall_s": wall,
        "item_tail_percentile": round(100 * (tail_rank + 1) / n, 2),
        "peak_rss_mb_measured": peak_rss_mb,
        "peak_rss_source": ("process peak" if verified == n
                            else "memory ceiling: not every item verified"),
    }
    return metrics, facts


def memory_ceiling_mb() -> float:
    """Physical memory of the host, the most a run could have needed."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


REF_LOOP_STEPS = 1_000_000


def ref_loop_s() -> float:
    """Time a fixed pure-Python loop, to tell host drift from program change."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_STEPS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start
