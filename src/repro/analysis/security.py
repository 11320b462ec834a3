"""Security verification of trackers against a ground-truth oracle (§5).

The paper proves (Theorem-1) that Hydra issues a mitigation for every
row at or before each T_RH/2 = T_H activations within a tracking
window. This module *checks* that property mechanically: an oracle
maintains the exact activation count of every row since the window
start or the row's last mitigation, feeds each activation to the
tracker under test, executes the tracker's mitigations (including the
victim-refresh feedback activations of §5.2.1), and flags a violation
the moment any row's true count exceeds the bound without a
mitigation.

Used by the oracle cell both harnesses share
(:func:`repro.attacks.pipeline.judge_attack`, for the arena and the
fuzzer), by ``hydra-sim security``, the §5/§7.3 benchmarks, both
security examples, and the unit/property tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.attacks.compile import EVENT_ACT, EVENT_SYNC, CompiledAttack
from repro.dram.address import AddressMapper
from repro.dram.timing import DramGeometry
from repro.interfaces import ActivationTracker

#: What the harness can execute: a flat row-id sequence (the historical
#: interface) or a compiled attack program, whose ``sync_refresh``
#: events become explicit window resets.
AttackSequence = Union[CompiledAttack, Iterable[int]]


@dataclass(frozen=True)
class SecurityViolation:
    """One instance of a row exceeding the bound unmitigated.

    ``activation_index`` is the 0-based position of the offending
    activation in the *global* activation order the harness executed —
    demand activations and §5.2.1 victim-refresh feedback activations
    alike. Two violations therefore always carry distinct, strictly
    increasing indices, even when both surface while draining one
    mitigation's feedback cascade.
    """

    row: int
    true_count: int
    activation_index: int


@dataclass
class SecurityReport:
    """Outcome of one verification run."""

    threshold: int
    activations: int = 0
    mitigations: int = 0
    victim_refreshes: int = 0
    max_unmitigated_count: int = 0
    violations: List[SecurityViolation] = field(default_factory=list)

    @property
    def secure(self) -> bool:
        return not self.violations


class TrackingOracle:
    """Exact per-row activation counts since window start / mitigation."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}

    def record(self, row: int) -> int:
        count = self._counts.get(row, 0) + 1
        self._counts[row] = count
        return count

    def mitigated(self, row: int) -> None:
        self._counts[row] = 0

    def count_of(self, row: int) -> int:
        return self._counts.get(row, 0)

    def window_reset(self) -> None:
        self._counts.clear()


class SecurityHarness:
    """Drives a tracker with an activation sequence under oracle watch."""

    def __init__(
        self,
        tracker: ActivationTracker,
        geometry: DramGeometry,
        threshold: int,
        blast_radius: int = 2,
        feed_mitigation_activations: bool = True,
        max_violations: int = 16,
        max_feedback_depth: int = 4,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.tracker = tracker
        self.mapper = AddressMapper(geometry)
        self.threshold = threshold
        self.blast_radius = blast_radius
        self.feed_mitigation_activations = feed_mitigation_activations
        self.max_violations = max_violations
        #: Bound on mitigation-feedback chains (see
        #: MemoryController.max_feedback_depth for rationale).
        self.max_feedback_depth = max_feedback_depth
        self.oracle = TrackingOracle()
        self.report = SecurityReport(threshold=threshold)

    def run(
        self,
        sequence: AttackSequence,
        window_every: Optional[int] = None,
    ) -> SecurityReport:
        """Execute an attack; optionally reset every N activations.

        ``sequence`` is either a flat row-id iterable or a
        :class:`~repro.attacks.compile.CompiledAttack`, whose
        ``sync_refresh`` events execute as explicit window resets —
        that is how refresh-synchronized programs express "wait out
        the window, then burst". ``window_every`` counts *demand*
        activations since the last reset, mirroring a time-based
        reset under a constant activation rate.
        """
        if isinstance(sequence, CompiledAttack):
            events: Iterable[Tuple[str, int]] = sequence.iter_events()
        else:
            events = ((EVENT_ACT, row) for row in sequence)
        since_reset = 0
        for kind, row in events:
            if kind == EVENT_SYNC:
                self.sync_window()
                since_reset = 0
                continue
            if window_every and since_reset and since_reset % window_every == 0:
                self.sync_window()
                since_reset = 0
            self._activate(row)
            since_reset += 1
            if len(self.report.violations) >= self.max_violations:
                break
        return self.report

    def sync_window(self) -> None:
        """Advance tracker and oracle to the next tracking window."""
        self.tracker.on_window_reset()
        self.oracle.window_reset()

    # ------------------------------------------------------------------

    def _activate(self, row: int) -> None:
        """One activation plus the tracker's full feedback cascade.

        Violations are stamped with the global activation counter
        (``report.activations``), not the demand activation's position:
        a feedback cascade executes several activations under one
        demand index, and stamping them all with that index made
        cascade violations indistinguishable and indices non-monotonic
        in true activation order.
        """
        pending = deque(((row, 0),))
        while pending:
            current, depth = pending.popleft()
            self.report.activations += 1
            index = self.report.activations - 1
            count = self.oracle.record(current)
            response = self.tracker.on_activation(current)
            mitigated_rows = response.mitigate_rows if response else ()
            for aggressor in mitigated_rows:
                self.report.mitigations += 1
                self.oracle.mitigated(aggressor)
                for victim in self.mapper.neighbors(aggressor, self.blast_radius):
                    self.report.victim_refreshes += 1
                    if (
                        self.feed_mitigation_activations
                        and depth < self.max_feedback_depth
                    ):
                        pending.append((victim, depth + 1))
            if current not in mitigated_rows:
                if count > self.report.max_unmitigated_count:
                    self.report.max_unmitigated_count = count
                if count > self.threshold:
                    self.report.violations.append(
                        SecurityViolation(
                            row=current,
                            true_count=count,
                            activation_index=index,
                        )
                    )


def verify_tracker(
    tracker: ActivationTracker,
    geometry: DramGeometry,
    sequence: AttackSequence,
    threshold: int,
    window_every: Optional[int] = None,
    blast_radius: int = 2,
    feed_mitigation_activations: bool = True,
    max_violations: int = 16,
    max_feedback_depth: int = 4,
) -> SecurityReport:
    """Convenience wrapper: build a harness and run one sequence.

    Every harness knob is plumbed through — in particular
    ``feed_mitigation_activations`` (disable the §5.2.1 victim-refresh
    feedback) and ``max_feedback_depth``, which earlier versions of
    this wrapper silently dropped, leaving callers unable to configure
    the cascade without building a :class:`SecurityHarness` by hand.
    """
    harness = SecurityHarness(
        tracker,
        geometry,
        threshold,
        blast_radius=blast_radius,
        feed_mitigation_activations=feed_mitigation_activations,
        max_violations=max_violations,
        max_feedback_depth=max_feedback_depth,
    )
    return harness.run(sequence, window_every=window_every)
