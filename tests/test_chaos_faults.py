"""The fault-injection framework itself: plans, triggers, determinism.

The chaos suites (``test_chaos_wal_store``, ``test_chaos_pool``,
``test_chaos_service``) assert the serving stack's *containment*
contracts under injected failure; this file asserts the injection
machinery those suites stand on — deterministic seeded triggers, the
``REPRO_FAULTS`` spec grammar, metrics export, and the zero-cost
disabled path.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro.faults as faults
from repro.faults import FaultPlan, FaultRule, InjectedFault
from repro.obs import metrics as _obs


class TestFaultRule:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(point="x", action="explode")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(point="x", probability=1.5)

    def test_once_implies_times_one(self):
        assert FaultRule(point="x", once=True).times == 1

    def test_bare_rule_fires_unconditionally(self):
        # No trigger options at all → every evaluation fires.
        assert FaultRule(point="x").every == 1


class TestPlanTriggers:
    def test_every_nth_evaluation_fires(self):
        plan = FaultPlan({"p": {"every": 3}})
        fired = [plan.decide("p") is not None for _ in range(9)]
        assert fired == [False, False, True] * 3

    def test_once_fires_exactly_once(self):
        plan = FaultPlan({"p": {"once": True}})
        fired = [plan.decide("p") is not None for _ in range(5)]
        assert fired == [True, False, False, False, False]

    def test_after_skips_warmup_evaluations(self):
        plan = FaultPlan({"p": {"after": 2}})
        fired = [plan.decide("p") is not None for _ in range(4)]
        assert fired == [False, False, True, True]

    def test_times_caps_total_fires(self):
        plan = FaultPlan({"p": {"times": 2}})
        assert sum(plan.decide("p") is not None for _ in range(10)) == 2

    def test_unknown_point_never_fires(self):
        plan = FaultPlan({"p": {"once": True}})
        assert plan.decide("other") is None
        assert "other" not in plan.counts()

    def test_probability_is_deterministic_per_seed(self):
        decisions = []
        for _ in range(2):
            plan = FaultPlan({"p": {"probability": 0.5}}, seed=7)
            decisions.append(
                [plan.decide("p") is not None for _ in range(64)]
            )
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_different_seeds_diverge(self):
        a = FaultPlan({"p": {"probability": 0.5}}, seed=1)
        b = FaultPlan({"p": {"probability": 0.5}}, seed=2)
        assert [a.decide("p") is not None for _ in range(64)] != [
            b.decide("p") is not None for _ in range(64)
        ]

    def test_points_get_independent_streams(self):
        # Same seed, different point names → different rng streams.
        plan = FaultPlan(
            {"x": {"probability": 0.5}, "y": {"probability": 0.5}}, seed=3
        )
        xs = [plan.decide("x") is not None for _ in range(64)]
        ys = [plan.decide("y") is not None for _ in range(64)]
        assert xs != ys

    def test_counts_track_evaluations_and_fires(self):
        plan = FaultPlan({"p": {"every": 2}})
        for _ in range(5):
            plan.decide("p")
        assert plan.counts() == {"p": {"evaluations": 5, "fired": 2}}


class TestSpecParsing:
    def test_full_grammar_round_trip(self):
        plan = FaultPlan.parse(
            "seed=7;wal.append.fsync:p=0.2;"
            "repl.apply.crash:once,action=exit,exit_code=3;"
            "monitor.refresh:every=4,after=1,action=sleep,sleep=0.01"
        )
        assert plan.seed == 7
        assert set(plan.points()) == {
            "wal.append.fsync", "repl.apply.crash", "monitor.refresh",
        }
        crash = plan._rules["repl.apply.crash"]
        assert crash.once and crash.action == "exit" and crash.exit_code == 3
        refresh = plan._rules["monitor.refresh"]
        assert refresh.every == 4 and refresh.after == 1
        assert refresh.action == "sleep" and refresh.sleep_s == 0.01
        assert plan._rules["wal.append.fsync"].probability == 0.2

    def test_empty_clauses_ignored(self):
        plan = FaultPlan.parse(" ; seed=3 ; p:once ; ")
        assert plan.seed == 3 and plan.points() == ("p",)

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultPlan.parse("p:frequency=2")

    def test_bare_unknown_flag_rejected(self):
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultPlan.parse("p:always")

    def test_missing_point_rejected(self):
        with pytest.raises(ValueError, match="without a point"):
            FaultPlan.parse(":once")

    def test_env_var_installs_plan_at_import(self):
        # The import-time path runs in a fresh interpreter: REPRO_FAULTS
        # must yield an installed plan without any test hook.
        env = dict(os.environ)
        env["REPRO_FAULTS"] = "seed=9;wal.append.fsync:p=0.5"
        env["PYTHONPATH"] = "src"
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro.faults as f; p = f.active_plan(); "
                "print(p.seed, ','.join(p.points()))",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["9", "wal.append.fsync"]


class TestHooks:
    def test_disabled_hooks_are_no_ops(self):
        assert faults.active_plan() is None
        faults.inject("anything")  # must not raise
        assert faults.fires("anything") is False

    def test_inject_raises_injected_fault_by_default(self):
        with faults.plan({"p": {"once": True}}):
            with pytest.raises(InjectedFault, match="injected fault at 'p'"):
                faults.inject("p")

    def test_inject_uses_exception_factory(self):
        with faults.plan({"p": {"once": True}}):
            with pytest.raises(OSError, match="disk full"):
                faults.inject("p", lambda: OSError("disk full"))

    def test_fires_is_decision_only(self):
        with faults.plan({"p": {"action": "raise"}}) as plan:
            assert faults.fires("p") is True  # action ignored, no raise
            assert plan.counts()["p"]["fired"] == 1

    def test_sleep_action_returns(self):
        with faults.plan({"p": {"action": "sleep", "sleep_s": 0.0}}):
            faults.inject("p")  # returns instead of raising

    def test_context_manager_restores_previous_plan(self):
        outer = FaultPlan({"a": {"once": True}})
        previous = faults.install(outer)
        try:
            with faults.plan({"b": {"once": True}}) as inner:
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        finally:
            faults.install(previous)

    def test_context_manager_accepts_spec_string(self):
        with faults.plan("seed=4;p:every=2") as plan:
            assert plan.seed == 4 and plan.points() == ("p",)

    def test_fired_faults_export_metrics(self):
        was_enabled = _obs.set_enabled(True)
        try:
            with faults.plan({"metrics.probe.point": {"every": 1}}):
                faults.fires("metrics.probe.point")
            counters = _obs.get_registry().snapshot()["counters"]
            matching = [
                key
                for key in counters
                if "repro_faults_injected_total" in key
                and "metrics.probe.point" in key
            ]
            assert matching and counters[matching[0]] >= 1
        finally:
            _obs.set_enabled(was_enabled)
