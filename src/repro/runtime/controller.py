"""Self-tuning runtime controller: a sense→decide→act loop between batches.

A batch policy sized for a burst adds latency at trickle rates, and one
sized for steady state collapses under bursts.  The
:class:`RuntimeController` closes the loop the telemetry plane opened, over
the one knob whose retargeting measured a gain (PR 10) — the ingest
batcher's ``max_batch``:

* **sense** — between batches it reads the recent batch-latency
  distribution (p95 over a bounded window, read from the registry's
  ``terids_batch_seconds`` sample ring when telemetry is enabled, from its
  own ring otherwise) and the arrival-queue depth (``IngestStats``);
* **decide** — a hysteresis-banded policy: halve ``max_batch`` when p95
  breaches the SLO, double it when latency headroom meets a standing
  backlog;
* **act** — through :meth:`~repro.ingest.batcher.AdaptiveBatcher.retarget`
  at a quiescent batch boundary.

Every decision is recorded three ways: ``terids_controller_*`` metric
families (bound in :func:`repro.obs.telemetry.bind_context_metrics`), a
bounded in-memory decision log (+ ``logging`` lines under
``repro.runtime.controller``), and the JSON-safe state dict riding on
``RuntimeContext.controller_state`` — which checkpoints persist, so a
restored run resumes with the target and decision counters it had.

Modes: ``"off"`` (the loop never runs), ``"observe"`` (sense + decide +
log, but never act — a dry run for sizing the bands), ``"active"``
(decisions are applied).  Bit-identity to the golden serial reference is
the invariant in every mode: match sets do not depend on how the stream is
cut into batches.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.ingest.batcher import BatchPolicy

logger = logging.getLogger(__name__)


#: Controller modes.
MODE_OFF = "off"
MODE_OBSERVE = "observe"
MODE_ACTIVE = "active"
_MODES = (MODE_OFF, MODE_OBSERVE, MODE_ACTIVE)

#: Decision action labels (the ``action`` label of
#: ``terids_controller_decisions_total``).
ACTION_RETARGET_DOWN = "retarget_down"
ACTION_RETARGET_UP = "retarget_up"


@dataclass(frozen=True)
class ControllerPolicy:
    """The hysteresis bands and bounds of the decision rule.

    All latency comparisons are against ``slo_p95_seconds``: the operator's
    per-batch latency objective.  ``high_band``/``low_band`` scale it into
    the hysteresis corridor — no decision fires while p95 sits between
    ``low_band * slo`` and ``high_band * slo``, which is what keeps the
    controller from flapping on noise.
    """

    #: Target p95 end-to-end batch latency, seconds.
    slo_p95_seconds: float = 0.25
    #: p95 above ``high_band * slo`` = overloaded (shrink the batch).
    high_band: float = 1.0
    #: p95 below ``low_band * slo`` = underloaded (grow the batch).
    low_band: float = 0.4
    #: Recent batches the sensing window covers; no decision fires until
    #: the window is full (and it is refilled after every applied
    #: retarget, a built-in settle time).
    window: int = 8
    #: Arrival-queue depth treated as a standing backlog.
    backlog_high: int = 16
    #: ``max_batch`` bounds of the batch-policy retarget rule.
    min_max_batch: int = 8
    max_max_batch: int = 256
    #: Bounded decision-log length.
    decision_log: int = 256

    def __post_init__(self) -> None:
        if self.slo_p95_seconds <= 0:
            raise ValueError(f"slo_p95_seconds must be positive, "
                             f"got {self.slo_p95_seconds}")
        if not 0 < self.low_band < self.high_band:
            raise ValueError(f"bands must satisfy 0 < low < high, got "
                             f"low={self.low_band} high={self.high_band}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 1 <= self.min_max_batch <= self.max_max_batch:
            raise ValueError(
                f"need 1 <= min_max_batch <= max_max_batch, got "
                f"{self.min_max_batch}..{self.max_max_batch}")


class RuntimeController:
    """Telemetry-driven adaptation of the ingest batch policy.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.engine.TERiDSEngine` whose context is
        sensed.
    mode:
        ``"off"`` / ``"observe"`` / ``"active"`` — see the module docstring.
    policy:
        The :class:`ControllerPolicy` bands; defaults are sized for the
        bundled workloads.
    batcher:
        The live :class:`~repro.ingest.batcher.AdaptiveBatcher` to
        retarget, when an ingest driver feeds the engine.  ``None``: the
        loop senses but has nothing to retarget.

    Call :meth:`after_batch` between batches — manually, or let
    :class:`~repro.ingest.driver.IngestDriver` do it by passing the
    controller as its ``controller=`` argument (a quiescent point: the
    batch's ``process_batch`` has fully returned).
    """

    def __init__(self, engine, mode: str = MODE_OBSERVE,
                 policy: Optional[ControllerPolicy] = None,
                 batcher=None) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.engine = engine
        self.ctx = engine.ctx
        self.mode = mode
        self.policy = policy if policy is not None else ControllerPolicy()
        self.batcher = batcher
        self.decision_log: Deque[Dict] = deque(maxlen=self.policy.decision_log)
        self._latencies: Deque[float] = deque(maxlen=self.policy.window)
        #: Stage-seconds total at the last sense, for the windowed delta.
        self._timer_mark: Optional[float] = None
        restored = self.ctx.controller_state or {}
        self.state: Dict = {
            "mode": mode,
            "slo_p95_seconds": self.policy.slo_p95_seconds,
            "evaluations": restored.get("evaluations", 0),
            "decisions": dict(restored.get("decisions", {})),
            "target_max_batch": restored.get(
                "target_max_batch",
                batcher.policy.max_batch if batcher is not None else 0),
            "last_p95_seconds": 0.0,
            "last_decision": restored.get("last_decision"),
        }
        self.ctx.controller_state = self.state

    # -- sense ----------------------------------------------------------------
    def _sense(self) -> Dict[str, float]:
        """The measured signals the rule reads, as of this batch boundary."""
        ctx = self.ctx
        timer_total = sum(ctx.timer.totals.values())
        if self._timer_mark is not None:
            self._latencies.append(timer_total - self._timer_mark)
        self._timer_mark = timer_total
        ingest = ctx.ingest
        return {
            "queue_depth": float(ingest.queue_depths[-1]
                                 if ingest.queue_depths else 0),
            "p95_seconds": self._p95(),
        }

    def _p95(self) -> float:
        """p95 batch latency: the registry's ``terids_batch_seconds`` ring
        when telemetry is live (the executor-measured wall time), the
        controller's own stage-seconds ring otherwise."""
        telemetry = self.ctx.telemetry
        if getattr(telemetry, "enabled", False):
            value = telemetry.batch_seconds.quantile(0.95)
            if value > 0.0:
                return value
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        return ordered[int(0.95 * (len(ordered) - 1))]

    # -- decide + act ---------------------------------------------------------
    def after_batch(self, driver=None, records=None) -> List[Dict]:
        """Run one sense→decide→act evaluation at a batch boundary.

        Signature matches the :class:`~repro.ingest.driver.IngestDriver`
        ``on_batch`` hook so the controller can be wired there directly.
        Returns the decisions taken this evaluation (empty most batches).
        """
        if self.mode == MODE_OFF:
            return []
        self.state["evaluations"] += 1
        signals = self._sense()
        self.state["last_p95_seconds"] = signals["p95_seconds"]
        decisions: List[Dict] = []
        if len(self._latencies) >= self.policy.window:
            self._decide_batch_policy(signals, decisions)
        return decisions

    def _decide_batch_policy(self, signals: Dict[str, float],
                             decisions: List[Dict]) -> None:
        """Retarget ``max_batch`` toward the SLO: halve above it, double it
        when there is latency headroom and a standing backlog."""
        batcher = self.batcher
        if batcher is None:
            return
        policy = self.policy
        p95 = signals["p95_seconds"]
        slo = policy.slo_p95_seconds
        current = batcher.policy.max_batch
        if p95 > policy.high_band * slo and current > policy.min_max_batch:
            target = max(policy.min_max_batch, current // 2)
            action = ACTION_RETARGET_DOWN
        elif (p95 < policy.low_band * slo
              and signals["queue_depth"] >= policy.backlog_high
              and current < policy.max_max_batch):
            target = min(policy.max_max_batch, current * 2)
            action = ACTION_RETARGET_UP
        else:
            return
        new_policy = BatchPolicy(
            max_batch=target, max_delay=batcher.policy.max_delay,
            watermark_stride=batcher.policy.watermark_stride)
        record = self._act(action, "max_batch", current, target,
                           reason=(f"p95={p95:.4f}s slo={slo}s "
                                   f"queue={signals['queue_depth']:.0f}"),
                           retarget=new_policy)
        decisions.append(record)
        if record["applied"]:
            self.state["target_max_batch"] = target
            self._latencies.clear()

    def _act(self, action: str, knob: str, old, new, reason: str,
             retarget: BatchPolicy) -> Dict:
        """Record one decision and (in active mode) apply it."""
        applied = self.mode == MODE_ACTIVE
        if applied:
            self.batcher.retarget(retarget)
        record = {
            "batch_seq": self.ctx.batch_seq,
            "action": action,
            "knob": knob,
            "from": old,
            "to": new,
            "reason": reason,
            "applied": applied,
        }
        self.decision_log.append(record)
        counts = self.state["decisions"]
        counts[action] = counts.get(action, 0) + 1
        self.state["last_decision"] = (f"{action} {knob} {old}->{new} "
                                       f"({reason})")
        logger.info("controller[%s] batch=%d %s %s %s -> %s (%s)%s",
                    self.mode, self.ctx.batch_seq, action, knob, old, new,
                    reason, "" if applied else " [not applied]")
        return record

    # -- checkpoint glue ------------------------------------------------------
    def detach(self) -> None:
        """Unhook from the context (the state dict stays for checkpoints)."""
        if self.ctx.controller_state is self.state:
            self.ctx.controller_state = dict(self.state)
