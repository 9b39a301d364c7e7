"""Property-based tests for middleware components (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffer import InMemoryStore, MessageBuffer
from repro.core.scheduler import PogoScheduler
from repro.device.cpu import Cpu, CpuConfig, MainsCpu
from repro.device.power import PowerRail
from repro.sim import Kernel


# ---------------------------------------------------------------------------
# Scheduler: per-key FIFO order under arbitrary submission interleavings
# ---------------------------------------------------------------------------

submissions = st.lists(
    st.tuples(
        st.floats(0.0, 5_000.0),              # submission time
        st.sampled_from(["s1", "s2", None]),  # serial key (None = free pool)
    ),
    min_size=1,
    max_size=30,
)


@given(submissions, st.booleans())
@settings(max_examples=100, deadline=None)
def test_scheduler_preserves_per_key_order(plan, on_phone):
    kernel = Kernel()
    cpu = Cpu(kernel, PowerRail(kernel), CpuConfig()) if on_phone else MainsCpu(kernel)
    scheduler = PogoScheduler(kernel, cpu)

    executed = []
    for index, (at, key) in enumerate(plan):
        kernel.schedule_at(
            at,
            lambda i=index, k=key: scheduler.submit(
                lambda i=i, k=k: executed.append((k, i)), serial_key=k
            ),
        )
    kernel.run()
    kernel.run_until(kernel.now + 10_000.0)

    assert len(executed) == len(plan)
    # Within each serial key, tasks ran in submission order.  (Same-time
    # submissions are ordered by kernel FIFO, which follows list order.)
    for key in ("s1", "s2"):
        ran = [i for k, i in executed if k == key]
        submitted = sorted(
            (at, i) for i, (at, k) in enumerate(plan) if k == key
        )
        assert ran == [i for _, i in submitted]


@given(submissions)
@settings(max_examples=60, deadline=None)
def test_pogo_scheduler_releases_all_wake_locks(plan):
    kernel = Kernel()
    cpu = Cpu(kernel, PowerRail(kernel), CpuConfig(awake_hold_ms=300.0))
    scheduler = PogoScheduler(kernel, cpu)
    for at, key in plan:
        kernel.schedule_at(at, scheduler.submit, (lambda: None), )
    kernel.run()
    kernel.run_until(kernel.now + 5_000.0)
    assert cpu.wake_locks_held == 0
    assert not cpu.awake


# ---------------------------------------------------------------------------
# Buffer: expiry semantics for arbitrary enqueue schedules
# ---------------------------------------------------------------------------

enqueue_plans = st.lists(st.floats(0.0, 100_000.0), min_size=1, max_size=25)


@given(enqueue_plans, st.floats(1_000.0, 50_000.0), st.floats(0.0, 200_000.0))
@settings(max_examples=100, deadline=None)
def test_buffer_expiry_is_exactly_age_based(times, max_age, check_at):
    kernel = Kernel()
    buffer = MessageBuffer(kernel, InMemoryStore(), max_age_ms=max_age)
    for index, at in enumerate(sorted(times)):
        kernel.schedule_at(at, buffer.enqueue, "peer", {"n": index})
    kernel.run()
    kernel.run_until(max(kernel.now, check_at))
    buffer.peek_batches()
    cutoff = kernel.now - max_age
    expected_alive = sum(1 for at in times if at >= cutoff)
    assert len(buffer) == expected_alive
    assert buffer.expired == len(times) - expected_alive
