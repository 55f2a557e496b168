"""Retry/backoff, circuit breaker, and the degradation ladder's health window."""

import random

import pytest

from repro.core.rng import python_rng
from repro.faults.degradation import HEALTH_WINDOW, DegradationManager, ServiceLevel
from repro.faults.resilience import (
    BreakerOpen,
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
    RetryStats,
    VirtualClock,
    retry_with_backoff,
)


class Transient(Exception):
    pass


class Permanent(Exception):
    pass


def flaky(failures, exc=Transient):
    """An op that raises ``exc`` the first ``failures`` calls, then passes."""
    calls = {"n": 0}

    def op():
        calls["n"] += 1
        if calls["n"] <= failures:
            raise exc(f"failure {calls['n']}")
        return "ok"

    return op, calls


class TestVirtualClock:
    def test_advances_and_rejects_rewind(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        with pytest.raises(ValueError, match="advances"):
            clock.advance(-0.1)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay_s=0.1, factor=2.0, max_delay_s=0.3,
                             jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay_s(i, rng) for i in range(4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_stays_within_band_and_is_seed_deterministic(self):
        policy = RetryPolicy(base_delay_s=1.0, factor=1.0, max_delay_s=1.0,
                             jitter=0.2)
        rng_a = python_rng("jitter", 7)
        rng_b = python_rng("jitter", 7)
        draws_a = [policy.delay_s(0, rng_a) for _ in range(50)]
        draws_b = [policy.delay_s(0, rng_b) for _ in range(50)]
        assert draws_a == draws_b
        assert all(0.8 <= d <= 1.2 for d in draws_a)
        assert len(set(draws_a)) > 1


class TestRetryWithBackoff:
    def run(self, op, **kwargs):
        stats = RetryStats()
        clock = VirtualClock()
        kwargs.setdefault("policy", RetryPolicy(max_attempts=3, jitter=0.0))
        kwargs.setdefault("rng", random.Random(0))
        kwargs.setdefault("retry_on", (Transient,))
        result = retry_with_backoff(op, clock=clock, stats=stats, **kwargs)
        return result, stats, clock

    def test_first_try_success_never_waits(self):
        op, calls = flaky(0)
        result, stats, clock = self.run(op)
        assert result == "ok" and calls["n"] == 1
        assert stats.to_dict() == {"calls": 1, "attempts": 1, "retries": 0,
                                   "recovered": 0, "exhausted": 0}
        assert clock.now == 0.0

    def test_recovers_after_transient_failures(self):
        op, calls = flaky(2)
        result, stats, clock = self.run(op)
        assert result == "ok" and calls["n"] == 3
        assert stats.retries == 2 and stats.recovered == 1
        assert clock.now == pytest.approx(0.1 + 0.2)  # modeled backoff

    def test_exhausts_after_max_attempts(self):
        op, calls = flaky(99)
        stats = RetryStats()
        with pytest.raises(Transient):
            retry_with_backoff(op, policy=RetryPolicy(max_attempts=3,
                                                      jitter=0.0),
                               rng=random.Random(0), clock=VirtualClock(),
                               retry_on=(Transient,), stats=stats)
        assert calls["n"] == 3 and stats.exhausted == 1

    def test_permanent_errors_propagate_without_retry(self):
        op, calls = flaky(99, exc=Permanent)
        with pytest.raises(Permanent):
            self.run(op)
        assert calls["n"] == 1  # no retry budget spent on permanent failure


class TestCircuitBreaker:
    def make(self, clock=None, **kwargs):
        clock = clock or VirtualClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("recovery_time_s", 3.0)
        return CircuitBreaker("backend", clock=clock, **kwargs), clock

    def trip(self, breaker):
        for _ in range(breaker.failure_threshold):
            with pytest.raises(Transient):
                breaker.call(self.boom)

    @staticmethod
    def boom():
        raise Transient("down")

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        self.trip(breaker)
        assert breaker.state is BreakerState.OPEN and breaker.opens == 1

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make()
        for _ in range(2):
            with pytest.raises(Transient):
                breaker.call(self.boom)
        breaker.call(lambda: "ok")
        with pytest.raises(Transient):
            breaker.call(self.boom)
        assert breaker.state is BreakerState.CLOSED

    def test_open_rejects_without_executing(self):
        breaker, _ = self.make()
        self.trip(breaker)
        calls = {"n": 0}

        def op():
            calls["n"] += 1
            return "ok"

        with pytest.raises(BreakerOpen):
            breaker.call(op)
        assert calls["n"] == 0 and breaker.rejections == 1

    def test_half_open_probe_closes_on_success(self):
        breaker, clock = self.make()
        self.trip(breaker)
        clock.advance(3.0)
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self.make()
        self.trip(breaker)
        clock.advance(3.0)
        with pytest.raises(Transient):
            breaker.call(self.boom)
        assert breaker.state is BreakerState.OPEN and breaker.opens == 2

    def test_to_dict_and_validation(self):
        breaker, _ = self.make()
        assert breaker.to_dict() == {"name": "backend", "opens": 0,
                                     "rejections": 0, "finalState": "closed"}
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker("x", clock=VirtualClock(), failure_threshold=0)


class TestWatchdogAndHealth:
    def test_health_monitor_windows_and_latest(self):
        # The ladder reads each component's last HEALTH_WINDOW reports:
        # a failing component is unhealthy once its failure fraction over
        # that window reaches the threshold.  One early failure, then
        # passes, then a second failure: the second counts the first only
        # while the first is still inside the window.
        assert HEALTH_WINDOW == 8

        def level_after(passes):
            manager = DegradationManager(degrade_threshold=0.15,
                                         recovery_streak=1)
            manager.tick(0.0)  # no reports yet: nothing is unhealthy
            assert manager.level is ServiceLevel.FULL
            for t, ok in enumerate([False, *[True] * passes, False], 1):
                manager.report("phy", ok)
                manager.tick(float(t))
            return manager.level

        assert level_after(HEALTH_WINDOW - 2) is ServiceLevel.DEGRADED  # 2/8
        assert level_after(HEALTH_WINDOW - 1) is ServiceLevel.FULL      # 1/8


class TestRetryJitterResumeDeterminism:
    """Jittered delays must be a pure function of the rng stream, so a
    resumed process (fresh clock, fresh breaker state, mid-campaign
    wall time) replays exactly the backoff schedule the original run
    would have produced."""

    POLICY = RetryPolicy(max_attempts=5, base_delay_s=0.5, factor=2.0,
                         max_delay_s=6.0, jitter=0.25)

    def delays(self, seed):
        rng = python_rng("retry/backoff", seed)
        return [self.POLICY.delay_s(i, rng) for i in range(4)]

    def test_same_seed_same_schedule(self):
        assert self.delays(11) == self.delays(11)

    def test_different_seed_different_schedule(self):
        assert self.delays(11) != self.delays(12)

    def test_schedule_is_independent_of_clock_state(self):
        """A clock resumed at t=1234.5 sees the same delays as t=0."""
        schedules = []
        for start in (0.0, 1234.5):
            clock = VirtualClock()
            if start:
                clock.advance(start)
            seen = []
            flaky_op, _ = flaky(3)

            def op(flaky_op=flaky_op, c=clock, s=start, seen=seen):
                seen.append(round(c.now - s, 9))
                return flaky_op()

            retry_with_backoff(
                op, policy=self.POLICY, rng=python_rng("retry/backoff", 11),
                clock=clock)
            schedules.append(seen)
        assert schedules[0] == schedules[1]
        # and the waits really are the seeded jittered delays (attempt i
        # reads the clock after the first i delays)
        expected = self.delays(11)[:3]
        cumulative = [sum(expected[:i]) for i in range(4)]
        assert schedules[0] == pytest.approx(cumulative)

    def test_interleaved_call_sites_do_not_share_jitter(self):
        """Two call sites with their own streams keep their own
        schedules even when their retries interleave on one clock."""
        clock = VirtualClock()
        rng_a = python_rng("retry/site-a", 3)
        rng_b = python_rng("retry/site-b", 3)
        seq_a = [self.POLICY.delay_s(i, rng_a) for i in range(2)]
        seq_b = [self.POLICY.delay_s(i, rng_b) for i in range(2)]
        # replay both with fresh streams, interleaved draw order
        rng_a2 = python_rng("retry/site-a", 3)
        rng_b2 = python_rng("retry/site-b", 3)
        inter_a = [self.POLICY.delay_s(0, rng_a2)]
        inter_b = [self.POLICY.delay_s(0, rng_b2)]
        inter_a.append(self.POLICY.delay_s(1, rng_a2))
        inter_b.append(self.POLICY.delay_s(1, rng_b2))
        assert (inter_a, inter_b) == (seq_a, seq_b)


class TestBreakerHalfOpenDiscipline:
    """HALF_OPEN is a probation window, not an amnesty: a probe failure
    reopens immediately and restarts the recovery wait."""

    def make(self, **kwargs):
        clock = VirtualClock()
        kwargs.setdefault("failure_threshold", 2)
        kwargs.setdefault("recovery_time_s", 5.0)
        breaker = CircuitBreaker("dep", clock=clock, **kwargs)
        return breaker, clock

    def trip(self, breaker):
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_probe_failure_reopens_and_restarts_recovery(self):
        breaker, clock = self.make()
        self.trip(breaker)
        clock.advance(5.0)
        assert breaker.allow()                       # OPEN -> HALF_OPEN
        breaker.record_failure()                     # probe fails
        assert breaker.state is BreakerState.OPEN and breaker.opens == 2
        # the recovery window restarts from the reopen, not the first open
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_open_window_rejects_while_half_open_admits(self):
        breaker, clock = self.make()
        self.trip(breaker)
        assert not breaker.allow() and not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()                       # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        # closed-loop: a successful probe closes; traffic resumes
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED and breaker.allow()
