"""Tests for the parallel experiment engine (``repro.parallel``).

The acceptance bar is determinism: ``run_parallel(points, fn, jobs=k)``
must be bit-identical to serial execution for any worker count — even
when workers crash and are retried — and ``seed_for`` values are pinned
as goldens so a refactor cannot silently reshuffle every sweep's RNG
streams.
"""

import dataclasses
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    PointFailedError,
    PointTimeoutError,
    WorkerCrashError,
)
from repro.parallel import (
    default_jobs,
    point_key,
    run_parallel,
    seed_for,
)
from repro.parallel.engine import _fork_context

HAVE_FORK = _fork_context() is not None

# ---------------------------------------------------------------------------
# experiment functions (module-level so they pickle by reference)


def _mix(point, seed):
    """A deterministic function of (point, seed): the reference result."""
    return (point, ((point * 2654435761 + seed) & 0xFFFFFFFF,
                    seed % 1_000_003))


#: Marker directory for crash injection; exported to forked workers via
#: the environment so the *points* (and therefore the derived seeds) are
#: identical between crashy and clean runs.
_CRASH_DIR_ENV = "REPRO_TEST_CRASH_DIR"


#: Set to the test process pid so crash injection can never fire in the
#: pytest process itself (run_parallel degrades to in-process serial for
#: single-point sweeps, and ``os._exit`` there would kill the test run).
_MAIN_PID_ENV = "REPRO_TEST_MAIN_PID"


def _crash_once_then_mix(point, seed):
    """Crashes the worker on the first attempt per point, then behaves
    exactly like :func:`_mix`.  The first attempt leaves a marker file,
    so the retried attempt (a fresh fork) survives."""
    marker_dir = os.environ[_CRASH_DIR_ENV]
    in_worker = os.environ.get(_MAIN_PID_ENV) != str(os.getpid())
    marker = os.path.join(marker_dir, f"crashed-{point_key(point)}")
    if in_worker and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(3)
    return _mix(point, seed)


def _always_crash(point, seed):
    os._exit(9)


def _sleep_forever(point, seed):
    time.sleep(60)


def _raise_value_error(point, seed):
    raise ValueError(f"deterministic failure for {point!r}")


def _identity_after_stagger(point, seed):
    # Later points finish first: completion order is the reverse of
    # submission order, so this exercises the deterministic merge.
    time.sleep(max(0.0, 0.25 - point * 0.04))
    return point


# ---------------------------------------------------------------------------
# seed derivation goldens


class TestSeedDerivationGoldens:
    """Pinned values: changing any of these reshuffles every sweep's RNG
    streams and must be treated as a breaking change, not a refactor."""

    # Lists of pairs, not dicts: True == 1 would collapse dict entries.
    GOLDEN_SEEDS = [
        (0, 1, 7114803030042122606),
        (0, 2, 3577170029662593486),
        (0, True, 6883846896243759555),
        (0, "1", 1197175835797100896),
        (1, 1, 3588320454349825417),
        (42, (64, "crc"), 8654766902672223965),
        (0, None, 5411143933779652621),
        (123456789, ("fig2-cores", 8), 5259292021914678939),
    ]

    GOLDEN_KEYS = [
        (None, "none"),
        (True, "bool:True"),
        (1, "int:1"),
        (1.5, "float:1.5"),
        ("x", "str:x"),
        (b"\x01\xff", "bytes:01ff"),
        ((1, (2, 3)), "seq:[int:1,seq:[int:2,int:3]]"),
    ]

    def test_seed_values_pinned(self):
        for root, point, expected in self.GOLDEN_SEEDS:
            assert seed_for(root, point) == expected, (root, point)

    def test_point_keys_pinned(self):
        for value, expected in self.GOLDEN_KEYS:
            assert point_key(value) == expected, value

    def test_seed_depends_only_on_canonical_form(self):
        # Lists and tuples are the same sweep; a string point is a value,
        # not a pre-computed key, so it cannot collide with an int point.
        assert seed_for(5, [1, 2]) == seed_for(5, (1, 2))
        assert seed_for(5, "int:1") != seed_for(5, 1)

    def test_seeds_are_63_bit_non_negative(self):
        for i in range(200):
            seed = seed_for(i, i * 7)
            assert 0 <= seed < 2 ** 63

    def test_distinct_points_get_distinct_seeds(self):
        seeds = {seed_for(0, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_bool_is_not_int_and_list_is_tuple(self):
        assert point_key(True) != point_key(1)
        assert point_key([1, 2]) == point_key((1, 2))
        assert point_key({"a": 1, "b": 2}) == point_key({"b": 2, "a": 1})

    def test_dataclass_canonicalization(self):
        @dataclasses.dataclass
        class P:
            a: int
            b: str

        assert point_key(P(1, "z")) == "obj:P:{a=int:1,b=str:z}"


# ---------------------------------------------------------------------------
# determinism properties


points_strategy = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=0, max_size=6)


class TestParallelEqualsSerial:
    @settings(max_examples=12, deadline=None)
    @given(points=points_strategy, root_seed=st.integers(0, 2 ** 32))
    def test_bit_identical_for_k_1_2_4(self, points, root_seed):
        serial = run_parallel(points, _mix, jobs=1, root_seed=root_seed)
        for k in (2, 4):
            parallel = run_parallel(points, _mix, jobs=k,
                                    root_seed=root_seed)
            assert parallel == serial

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    @settings(max_examples=8, deadline=None)
    @given(points=st.lists(st.integers(0, 1000), min_size=2, max_size=5,
                           unique=True),
           root_seed=st.integers(0, 2 ** 32))
    def test_bit_identical_under_injected_crashes(self, points, root_seed,
                                                  tmp_path_factory):
        serial = run_parallel(points, _mix, jobs=1, root_seed=root_seed)
        for k in (2, 4):
            crash_dir = str(tmp_path_factory.mktemp("crash-markers"))
            os.environ[_CRASH_DIR_ENV] = crash_dir
            os.environ[_MAIN_PID_ENV] = str(os.getpid())
            try:
                # Every worker dies on its first attempt; the bounded
                # retry must reproduce the serial results bit for bit.
                with_crashes = run_parallel(points, _crash_once_then_mix,
                                            jobs=k, root_seed=root_seed,
                                            retries=1)
            finally:
                os.environ.pop(_CRASH_DIR_ENV, None)
                os.environ.pop(_MAIN_PID_ENV, None)
            assert with_crashes == serial
            assert len(os.listdir(crash_dir)) == len(points)

    def test_results_in_submission_order(self):
        points = list(range(6))
        assert run_parallel(points, _identity_after_stagger,
                            jobs=6) == points

    def test_duplicate_points_get_identical_results(self):
        out = run_parallel([5, 5, 5], _mix, jobs=2, root_seed=9)
        assert out[0] == out[1] == out[2]


# ---------------------------------------------------------------------------
# robustness


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
class TestRobustness:
    def test_worker_crash_exhausts_retries(self):
        with pytest.raises(WorkerCrashError, match="died with exit code 9"):
            run_parallel([1, 2], _always_crash, jobs=2, retries=1)

    def test_point_timeout(self):
        start = time.monotonic()
        with pytest.raises(PointTimeoutError, match="exceeded 0.2 s"):
            run_parallel([1, 2], _sleep_forever, jobs=2,
                         timeout_s=0.2, retries=0)
        assert time.monotonic() - start < 30.0

    def test_fn_exception_is_point_failed_parallel(self):
        with pytest.raises(PointFailedError, match="ValueError"):
            run_parallel([1, 2], _raise_value_error, jobs=2)

    def test_crash_then_success_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_CRASH_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(_MAIN_PID_ENV, str(os.getpid()))
        out = run_parallel([1, 2, 3], _crash_once_then_mix, jobs=2,
                           retries=1)
        assert [v[0] for v in out] == [1, 2, 3]


class TestSerialFallback:
    def test_fn_exception_is_point_failed_serial(self):
        with pytest.raises(PointFailedError, match="ValueError"):
            run_parallel([1, 2], _raise_value_error, jobs=1)

    def test_unpicklable_fn_falls_back_with_warning(self):
        captured = []
        with pytest.warns(RuntimeWarning, match="not picklable"):
            out = run_parallel([1, 2, 3], lambda p, s: captured.append(p)
                               or p * 2, jobs=2)
        assert out == [2, 4, 6]
        assert captured == [1, 2, 3]  # ran in this very process

    def test_single_point_runs_in_process(self):
        sentinel = []
        out = run_parallel([7], lambda p, s: sentinel.append(s) or p,
                           jobs=4)
        assert out == [7] and len(sentinel) == 1

    def test_jobs_one_never_forks(self):
        pid = os.getpid()
        assert run_parallel([1, 2], lambda p, s: os.getpid(),
                            jobs=1) == [pid, pid]

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


