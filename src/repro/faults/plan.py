"""Deterministic fault injection: seeded plans over named injection points.

The serving stack declares *injection points* — ``wal.append.fsync``,
``store.atomic_write``, ``monitor.refresh``, and the replication tier's
``repl.ship.{drop,dup,reorder}`` / ``repl.apply.crash`` /
``repl.promote`` — at the exact lines where the real world fails (a full
disk, a buggy monitor, a lossy network between replicas, a node dying
mid-promotion).  A :class:`FaultPlan` decides, deterministically
from a seed, which evaluations of which points misbehave.  Chaos tests
and the CI fault matrix install plans and then assert the *containment*
contracts: typed errors, labeled degradation, bit-identical recovery.

Design rules:

* **Zero overhead when disabled.**  Every hook starts with a module-
  global ``_PLAN is None`` check — one load and one jump on the hot
  path, nothing else.  The obs overhead gate (<3%) covers this.
* **Deterministic.**  Each point gets its own ``random.Random`` seeded
  from ``seed`` and a stable digest of the point name, so plans replay
  identically across runs and processes (``hash()`` randomization never
  leaks in).  Triggers: ``p=<float>`` (per-evaluation probability),
  ``every=<N>`` (every Nth evaluation), ``once`` (first evaluation
  only), plus ``after=<N>`` (skip the first N) and ``times=<N>``
  (stop after N fires).
* **Observable.**  Fires increment
  ``repro_faults_injected_total{point=...}`` in the metrics registry
  and the plan's own :meth:`FaultPlan.counts`.

Activation: set ``REPRO_FAULTS`` before import (e.g.
``"seed=7;wal.append.fsync:p=0.2;monitor.refresh:once"``)
or use the :func:`repro.faults.plan` context manager in tests.
"""

from __future__ import annotations

import os
import random
import threading
import time
import zlib
from dataclasses import dataclass

from repro.obs import metrics as _obs

_obs.get_registry().declare(
    "repro_faults_injected_total",
    "counter",
    "Faults fired by the active fault plan.",
)


def _fired_counter(point: str):
    return _obs.get_registry().counter(
        "repro_faults_injected_total", labels={"point": point}
    )

_ACTIONS = ("raise", "exit", "sleep")


class InjectedFault(RuntimeError):
    """Default exception raised by a fired ``raise`` rule.

    Call sites that model a specific failure (an ``OSError`` from a
    full disk, say) pass their own exception factory to
    :func:`repro.faults.inject`; this type only surfaces where the
    generic failure is the realistic one.
    """


@dataclass
class FaultRule:
    """One point's trigger + action. See module docstring for semantics."""

    point: str
    probability: float = 0.0
    every: int = 0
    once: bool = False
    after: int = 0
    times: int = 0
    action: str = "raise"
    sleep_s: float = 0.05
    exit_code: int = 13

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; pick from {_ACTIONS}")
        if self.once:
            self.times = 1
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"fault probability must be in [0, 1], got {self.probability}")
        if self.probability == 0.0 and self.every == 0:
            # No trigger given: fire on every evaluation past `after`
            # (for `once` rules, `times` then caps that at one fire).
            self.every = 1


def _point_seed(seed: int, point: str) -> int:
    # crc32 is stable across processes and python versions, unlike hash()
    return (int(seed) ^ zlib.crc32(point.encode("utf-8"))) & 0xFFFFFFFF


class FaultPlan:
    """A seeded, deterministic schedule of faults over named points."""

    def __init__(self, rules: dict[str, FaultRule | dict], seed: int = 0):
        self.seed = int(seed)
        self._rules: dict[str, FaultRule] = {}
        for point, rule in rules.items():
            if isinstance(rule, dict):
                rule = FaultRule(point=point, **rule)
            self._rules[point] = rule
        self._lock = threading.Lock()
        self._evals: dict[str, int] = {point: 0 for point in self._rules}
        self._fired: dict[str, int] = {point: 0 for point in self._rules}
        self._rngs = {
            point: random.Random(_point_seed(self.seed, point)) for point in self._rules
        }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``REPRO_FAULTS`` spec string.

        Grammar: semicolon-separated clauses.  ``seed=N`` sets the plan
        seed; every other clause is ``point:opt,opt,...`` where each opt
        is ``once`` | ``p=F`` | ``every=N`` | ``after=N`` | ``times=N``
        | ``action=raise|exit|sleep`` | ``sleep=F`` | ``exit_code=N``.
        """
        seed = 0
        rules: dict[str, FaultRule] = {}
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                seed = int(clause[5:])
                continue
            point, _, opts = clause.partition(":")
            point = point.strip()
            if not point:
                raise ValueError(f"fault clause without a point: {clause!r}")
            kwargs: dict = {}
            for opt in filter(None, (o.strip() for o in opts.split(","))):
                key, eq, value = opt.partition("=")
                key = {"p": "probability", "sleep": "sleep_s"}.get(key, key)
                if not eq:
                    if key != "once":
                        raise ValueError(f"unknown fault option {opt!r} for {point!r}")
                    kwargs["once"] = True
                elif key == "probability" or key == "sleep_s":
                    kwargs[key] = float(value)
                elif key in ("every", "after", "times", "exit_code"):
                    kwargs[key] = int(value)
                elif key == "action":
                    kwargs[key] = value
                else:
                    raise ValueError(f"unknown fault option {opt!r} for {point!r}")
            rules[point] = FaultRule(point=point, **kwargs)
        return cls(rules, seed=seed)

    # -- decisions ---------------------------------------------------------

    def decide(self, point: str) -> FaultRule | None:
        """Evaluate ``point`` once; the rule if this evaluation fires."""
        rule = self._rules.get(point)
        if rule is None:
            return None
        with self._lock:
            self._evals[point] += 1
            n = self._evals[point] - rule.after
            if n <= 0:
                return None
            if rule.times and self._fired[point] >= rule.times:
                return None
            if rule.every:
                fire = n % rule.every == 0
            else:
                fire = self._rngs[point].random() < rule.probability
            if not fire:
                return None
            self._fired[point] += 1
        if _obs.enabled():
            _fired_counter(point).inc()
        return rule

    # -- views -------------------------------------------------------------

    def counts(self) -> dict[str, dict[str, int]]:
        """Per-point ``{"evaluations": n, "fired": m}`` so far."""
        with self._lock:
            return {
                point: {"evaluations": self._evals[point], "fired": self._fired[point]}
                for point in self._rules
            }

    def points(self) -> tuple[str, ...]:
        return tuple(self._rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, points={list(self._rules)})"


def perform(rule: FaultRule, point: str, exc_factory=None) -> None:
    """Carry out a fired rule's action. ``sleep`` returns; others don't."""
    if rule.action == "exit":
        # simulate a crashed process (pool worker): no cleanup, no excepthook
        os._exit(rule.exit_code)
    if rule.action == "sleep":
        time.sleep(rule.sleep_s)
        return
    if exc_factory is not None:
        raise exc_factory()
    raise InjectedFault(f"injected fault at {point!r}")
