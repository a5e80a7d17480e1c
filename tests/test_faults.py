"""Deterministic fault injection.

- ``repro.core.faults`` -- spec parsing round-trips, seeded random plans
  are reproducible, Nth-hit rules are consumable (a retry does not
  re-trip a spent rule), and the disarmed hook is a no-op.
- the ``persist`` site -- torn writes tear the WAL tail, which repairs
  itself, and the checkpointer's retry absorbs a single torn write.

The property-based chaos test at the bottom drives random seeded fault
plans through the serving stack, with the accounting, no-hang, and
bit-identity invariants asserted by ``run_serving_load`` itself.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ScoringSession, faults
from repro.core.faults import (
    ACTION_TORN_WRITE,
    FAULT_ACTIONS,
    FAULT_SITES,
    SITE_PERSIST,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
)
from repro.data import SyntheticConfig, generate, uniform_sources
from repro.eval.harness import run_serving_load


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with injection disarmed."""
    faults.uninstall()
    yield
    faults.uninstall()


def _dataset(seed=17, n_sources=8, n_triples=480):
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.65, recall=0.45),
        n_triples=n_triples,
        true_fraction=0.5,
    )
    return generate(config, seed=seed)


class TestFaultSpec:
    def test_spec_round_trips(self):
        spec = "compile:raise:2:1,score:raise:1:0,dispatch:delay:3:1@0.05"
        plan = FaultPlan.from_spec(spec)
        assert plan.spec == spec
        assert FaultPlan.from_spec(plan.spec) == plan

    def test_spec_defaults(self):
        (rule,) = FaultPlan.from_spec("compile:raise").rules
        assert rule == FaultRule("compile", "raise", nth=1, count=1)
        (rule,) = FaultPlan.from_spec("score:raise:3").rules
        assert rule.nth == 3 and rule.count == 1

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.from_spec("warp:raise")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan.from_spec("score:explode")
        with pytest.raises(ValueError, match="nth must be >= 1"):
            FaultPlan.from_spec("score:raise:0")
        with pytest.raises(ValueError, match="site:action"):
            FaultPlan.from_spec("score")
        with pytest.raises(ValueError, match="ints"):
            FaultPlan.from_spec("score:raise:x")
        # There is no pool-worker site and no kill action.
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.from_spec("worker:raise")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan.from_spec("score:kill")

    def test_count_zero_is_persistent(self):
        rule = FaultRule("score", "raise", nth=2, count=0)
        assert not rule.matches(1)
        assert all(rule.matches(hit) for hit in range(2, 50))

    def test_bounded_count_window(self):
        rule = FaultRule("score", "raise", nth=2, count=3)
        assert [hit for hit in range(1, 8) if rule.matches(hit)] == [2, 3, 4]

    def test_random_plans_are_seed_deterministic(self):
        assert FaultPlan.random(5) == FaultPlan.random(5)
        specs = {FaultPlan.random(seed).spec for seed in range(20)}
        assert len(specs) > 1
        for seed in range(20):
            plan = FaultPlan.random(seed)
            assert plan.rules
            for rule in plan.rules:
                assert rule.site in FAULT_SITES
                assert rule.action in FAULT_ACTIONS


class TestInjector:
    def test_disarmed_trip_is_a_noop(self):
        assert faults.active_injector() is None
        faults.trip("score")  # must not raise

    def test_env_spec_arms_installation(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "score:raise:1")
        faults._install_from_env()
        injector = faults.active_injector()
        assert injector is not None
        assert injector.plan.spec == "score:raise:1:1"

    def test_nth_hit_fires_once_and_is_consumed(self):
        injector = faults.install(FaultPlan.from_spec("score:raise:2"))
        faults.trip("score")  # hit 1: below nth
        with pytest.raises(InjectedFault) as excinfo:
            faults.trip("score")  # hit 2: fires
        assert excinfo.value.site == "score"
        assert excinfo.value.hit == 2
        faults.trip("score")  # hit 3: rule consumed
        stats = injector.stats
        assert stats["hits"] == {"score": 3}
        assert stats["fired"] == {"score": 1}

    def test_unwatched_sites_never_fire(self):
        injector = faults.install(FaultPlan.from_spec("refit:raise:1"))
        faults.trip("score")
        assert injector.stats["fired"] == {}

    def test_armed_block_restores_the_previous_injector(self):
        outer = faults.install(FaultPlan.from_spec("score:raise:2"))
        faults.trip("score")  # hit 1 on the outer injector
        with faults.armed(FaultPlan.from_spec("refit:raise:1")) as inner:
            assert faults.active_injector() is inner
            assert inner is not outer
        assert faults.active_injector() is outer
        with faults.armed(None) as disarmed:
            assert disarmed is None
            faults.trip("score")  # disarmed: counts nowhere
        assert faults.active_injector() is outer
        with pytest.raises(InjectedFault):
            faults.trip("score")  # hit 2: the counters survived
        assert outer.stats["hits"] == {"score": 2}

    def test_delay_token_sleeps_then_returns(self):
        injector = faults.install(
            FaultPlan.from_spec("score:delay:1@0.001")
        )
        token = injector.token("score")
        assert token == ("delay", 0.001, "score", 1)
        faults.perform(token)  # returns after the injected sleep

    def test_injector_refuses_to_pickle(self):
        injector = FaultInjector(FaultPlan.from_spec("score:raise:1"))
        with pytest.raises(TypeError, match="process-local"):
            pickle.dumps(injector)


class TestPersistFaults:
    """The persist site and its torn-write action (satellite S1)."""

    def test_torn_write_spec_round_trips(self):
        plan = FaultPlan.from_spec("persist:torn-write:2@0.5")
        (rule,) = plan.rules
        assert rule.site == SITE_PERSIST
        assert rule.action == ACTION_TORN_WRITE
        assert rule.delay_seconds == 0.5
        assert FaultPlan.from_spec(plan.spec) == plan

    def test_torn_write_rejects_non_persist_sites(self):
        with pytest.raises(ValueError):
            FaultRule(site="compile", action=ACTION_TORN_WRITE)
        with pytest.raises(ValueError):
            FaultPlan.from_spec("score:torn-write:1")

    def test_random_plans_keep_torn_write_on_persist(self):
        for seed in range(200):
            for rule in FaultPlan.random(seed).rules:
                if rule.action == ACTION_TORN_WRITE:
                    assert rule.site == SITE_PERSIST

    def test_torn_write_tears_the_wal_tail_and_repairs(self):
        import numpy as np

        from repro.persist.wal import WriteAheadLog, scan_wal

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "wal.log"
            wal = WriteAheadLog(path)
            wal.append({"type": "refit_begin", "seq": 1, "mode": "delta"}, {})
            faults.install(FaultPlan.from_spec("persist:torn-write:1@0.4"))
            with pytest.raises(InjectedFault):
                wal.append(
                    {"type": "refit_begin", "seq": 2, "mode": "delta"},
                    {"junk": np.arange(64, dtype=np.int64)},
                )
            wal.close()
            # The failed append repaired its own tail: only the intact
            # first record survives, zero torn bytes.
            scan = scan_wal(path)
            assert len(scan.records) == 1
            assert scan.torn_bytes == 0

    def test_checkpointer_retry_absorbs_a_single_torn_write(self):
        from repro.persist import Checkpointer

        dataset = _dataset(seed=23, n_sources=6, n_triples=128)
        with tempfile.TemporaryDirectory() as tmp:
            session = ScoringSession(
                dataset.observations, dataset.labels, method="precreccorr"
            )
            try:
                checkpointer = Checkpointer.attach(
                    session,
                    dataset.observations,
                    dataset.labels,
                    Path(tmp) / "ckpt",
                )
                faults.install(
                    FaultPlan.from_spec("persist:torn-write:1@0.3")
                )
                session.refit_delta(dataset.observations, dataset.labels)
                stats = checkpointer.stats
                checkpointer.close()
            finally:
                session.close()
        assert stats["torn_repairs"] == 1
        assert stats["degraded"] is False
        assert stats["refits"] == 1


# One shared workload for the property-based chaos sweep: generating the
# dataset is the expensive part and is fault-independent.
_CHAOS_DATASET = None


def _chaos_dataset():
    global _CHAOS_DATASET
    if _CHAOS_DATASET is None:
        _CHAOS_DATASET = _dataset(seed=17, n_sources=8, n_triples=480)
    return _CHAOS_DATASET


class TestChaosProperties:
    """Seeded chaos through the serving stack.

    ``run_serving_load`` itself raises on any violated invariant --
    incomplete accounting, a hang past ``max_seconds``, an admission
    leak, or any non-zero score difference against the fault-free cold
    twin -- so the property body only has to drive it.
    """

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        fault_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_fault_plans_preserve_the_serving_contract(
        self, fault_seed
    ):
        faults.uninstall()
        try:
            # A per-example checkpoint directory arms the persist fault
            # site too: random plans may tear WAL appends and snapshot
            # writes, and the checkpointer must absorb them (repair or
            # degrade) without ever failing the serving path.
            with tempfile.TemporaryDirectory() as tmp:
                report = run_serving_load(
                    _chaos_dataset(),
                    requests=12,
                    rate_qps=300.0,
                    fault_plan=faults.FaultPlan.random(fault_seed),
                    refit_every=6,
                    max_seconds=90.0,
                    checkpoint_dir=os.path.join(tmp, "ckpt"),
                )
        finally:
            faults.uninstall()
        assert report.terminated == report.requests
        assert report.max_abs_diff == 0.0
        assert report.stats["admission"]["depth"] == 0
        assert report.stats["admission"]["inflight_bytes"] == 0
        # Durability accounting stayed honest under injection: every
        # skipped record was counted, and degradation (if any) is
        # visible rather than silent.
        checkpoint = report.checkpoint_stats
        assert checkpoint, "checkpointer stats missing from chaos report"
        if checkpoint["degraded"]:
            assert checkpoint["skipped_degraded"] > 0
