"""Engine-level wall-clock deadlines (XQDY_TIMEOUT) in every backend.

The robustness layer's promise is that a runaway query is cut off at the
next pipeline-stage boundary rather than hanging its worker thread.  The
workload here is the calculus's own nemesis: a cross join whose FLWOR
touches enough tuples that deadline checks fire many times per
millisecond, so a small budget is exceeded almost immediately.
"""

import gc
import time

import pytest

from repro.xquery import EngineConfig, XQueryEngine
from repro.xquery.errors import XQueryError, XQueryTimeoutError

#: a cross join plus a predicate: slow enough to blow a tiny budget, with
#: checks at the clause, tuple, and path-step boundaries along the way.
SLOW_QUERY = """
for $i in 1 to 300
for $j in 1 to 300
where ($i * $j) mod 7 = 0
return $i + $j
"""

#: ~90k tuples whose `order by` keys dominate the run (1.5-3 s in full).
ORDER_QUERY = """
for $i in 1 to 3000
for $j in 1 to 30
order by concat(string($i), "-", string($j)) descending
return $i
"""

FAST_QUERY = "for $i in 1 to 10 return $i * $i"

BACKENDS = ("treewalk", "closures", "algebra")


def _overrun(engine, budget: float, source: str = SLOW_QUERY) -> float:
    """Seconds from calling the timed-out run until it raised."""
    compiled = engine.compile(source)
    started = time.monotonic()
    with pytest.raises(XQueryTimeoutError):
        compiled.run(timeout=budget)
    return time.monotonic() - started


@pytest.fixture(params=BACKENDS)
def engine(request):
    return XQueryEngine(EngineConfig(backend=request.param))


class TestTimeouts:
    def test_slow_query_times_out(self, engine):
        compiled = engine.compile(SLOW_QUERY)
        with pytest.raises(XQueryTimeoutError) as excinfo:
            compiled.run(timeout=0.01)
        assert excinfo.value.code == "XQDY_TIMEOUT"

    def test_timeout_error_is_a_spec_error(self, engine):
        compiled = engine.compile(SLOW_QUERY)
        with pytest.raises(XQueryError):
            compiled.run(timeout=0.01)

    def test_overrun_is_bounded(self, engine):
        # the acceptance bound is 2x the budget; engine-side checks are
        # much tighter than that for a tuple-at-a-time workload.  50 ms
        # lands while the `for` clauses expand.
        assert _overrun(engine, 0.05) < 2 * 0.05

    @pytest.mark.parametrize("budget", [0.2, 0.4])
    def test_overrun_is_bounded_in_where_phase(self, engine, budget):
        # these budgets land in the `where` phase (the full run takes about
        # a second), which only per-tuple checks in that loop can cut off.
        assert _overrun(engine, budget) < 2 * budget

    def test_overrun_is_bounded_in_order_phase(self, engine):
        # computing the sort keys is a per-tuple loop of its own.
        assert _overrun(engine, 0.2, ORDER_QUERY) < 2 * 0.2

    def test_atomic_tuples_set_off_no_full_collection(self, engine):
        # a full collection is a stop no deadline check can interrupt;
        # binding tuples over atomic items must not add to the collector's
        # work, so ~90k of them never reach the full-collection threshold.
        compiled = engine.compile(SLOW_QUERY)
        full = []

        def watch(phase, info):
            if phase == "start" and info["generation"] == 2:
                full.append(info)

        gc.collect()
        gc.callbacks.append(watch)
        try:
            with pytest.raises(XQueryTimeoutError):
                compiled.run(timeout=0.3)
        finally:
            gc.callbacks.remove(watch)
        assert full == []

    def test_ample_timeout_completes_normally(self, engine):
        compiled = engine.compile(FAST_QUERY)
        assert compiled.run(timeout=60.0) == [i * i for i in range(1, 11)]

    def test_no_timeout_is_unlimited(self, engine):
        compiled = engine.compile(FAST_QUERY)
        assert compiled.run() == [i * i for i in range(1, 11)]

    def test_absolute_deadline_accepted(self, engine):
        compiled = engine.compile(SLOW_QUERY)
        with pytest.raises(XQueryTimeoutError):
            compiled.run(deadline=time.monotonic() + 0.01)

    def test_timeout_caps_a_later_deadline(self, engine):
        # when both are given, the tighter one wins
        compiled = engine.compile(SLOW_QUERY)
        started = time.monotonic()
        with pytest.raises(XQueryTimeoutError):
            compiled.run(timeout=0.02, deadline=time.monotonic() + 60.0)
        assert time.monotonic() - started < 1.0

    def test_user_function_recursion_times_out(self, engine):
        source = """
        declare function local:spin($n) {
          if ($n = 0) then 0 else local:spin($n - 1) + local:spin($n - 1)
        };
        local:spin(24)
        """
        compiled = engine.compile(source)
        with pytest.raises(XQueryTimeoutError):
            compiled.run(timeout=0.02)

    def test_already_expired_deadline_fails_fast(self, engine):
        compiled = engine.compile(SLOW_QUERY)
        started = time.monotonic()
        with pytest.raises(XQueryTimeoutError):
            compiled.run(deadline=time.monotonic() - 1.0)
        assert time.monotonic() - started < 0.5

    def test_engine_evaluate_accepts_timeout(self, engine):
        with pytest.raises(XQueryTimeoutError):
            engine.evaluate(SLOW_QUERY, timeout=0.01)
        assert engine.evaluate(FAST_QUERY, timeout=60.0) == [
            i * i for i in range(1, 11)
        ]
