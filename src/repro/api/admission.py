"""Admission control for the query service.

The shared medium saturates: at 16-32 concurrent users the per-user
success ratio degrades and the *worst* user suffers most (collisions grow
superlinearly — see ``benchmarks/test_multiuser_scaling.py``).  An
:class:`AdmissionPolicy` decides, per submitted request, whether the
service takes the session at all and whether its start time is adjusted.
Three policies ship:

* :class:`AcceptAllPolicy` — the open service (a spec's default).
* :class:`PerAreaCapPolicy` — reject a session whose query area would
  overlap too many already-admitted live sessions: spatial load shedding
  that trades served-user count for worst-user quality.
* :class:`PhaseAssignPolicy` — accept, but offset ``start_s`` so
  deadlines spread across the period.  Simultaneous arrivals phase-lock
  every session's report burst and cost 10-20 pp of success ratio; the
  server picks the phase because only it sees the whole fleet.

Policies are pure deciders: they draw no randomness and schedule no
events, so a rejection provably leaves the kernel untouched (the only
rejection residue lives outside the kernel: a path the service had to
synthesise for the decision consumed mobility-stream draws).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ..core.query import QuerySpec
from ..mobility.path import PiecewisePath
from ..plain import load, parameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import MobiQueryService


@dataclass(frozen=True)
class AdmissionDecision:
    """The policy's verdict on one request."""

    admitted: bool
    reason: str = ""
    #: added to the request's start_s (phase assignment); 0 = as asked
    start_offset_s: float = 0.0

    @staticmethod
    def accept(offset_s: float = 0.0) -> "AdmissionDecision":
        return AdmissionDecision(admitted=True, start_offset_s=offset_s)

    @staticmethod
    def reject(reason: str) -> "AdmissionDecision":
        return AdmissionDecision(admitted=False, reason=reason)


class AdmissionPolicy:
    """Base class: accept everything, override :meth:`decide`."""

    #: registry name (CLI / scenario specs)
    name = "accept-all"

    def decide(
        self,
        spec: QuerySpec,
        path: PiecewisePath,
        service: "MobiQueryService",
    ) -> AdmissionDecision:
        """Decide on a session described by ``spec`` moving along ``path``.

        Must not mutate the service, draw randomness, or schedule events —
        rejections leave the kernel bit-identical to never having asked.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description (CLI output)."""
        return self.name


class ReplayAdmissionPolicy(AdmissionPolicy):
    """Replay a pre-recorded decision sequence, one per submission.

    The cluster decided admission in-process (with the cluster-wide view);
    a worker rebuilding the shard must reproduce those exact verdicts —
    re-running a policy shard-locally could decide differently (e.g. a
    phase slot counted cluster-wide).  A daemon's op log replays its
    recorded verdicts the same way.  Decisions are consumed in submission
    order; running out is a protocol violation and raises.
    """

    name = "replay"

    def __init__(self, decisions: Sequence[AdmissionDecision]) -> None:
        self._decisions = list(decisions)
        self._next = 0

    def decide(self, spec, path, service) -> AdmissionDecision:
        if self._next >= len(self._decisions):
            raise RuntimeError(
                f"replay exhausted after {len(self._decisions)} decisions — "
                f"the worker submitted more requests than the plan recorded"
            )
        decision = self._decisions[self._next]
        self._next += 1
        return decision

    def describe(self) -> str:
        return f"replay({len(self._decisions)} decisions)"


class AcceptAllPolicy(AdmissionPolicy):
    """Admit every request exactly as submitted."""

    name = "accept-all"

    def decide(self, spec, path, service) -> AdmissionDecision:
        return AdmissionDecision.accept()


class PerAreaCapPolicy(AdmissionPolicy):
    """Cap how many live sessions may overlap one query area.

    A new session is rejected when, at its start instant, at least
    ``max_overlapping`` already-admitted sessions have query areas
    intersecting the newcomer's (circle-overlap test on the two radii).
    Sessions that ended or were cancelled do not count, so a rejected user
    who resubmits after the area drains is admitted.
    """

    name = "per-area-cap"

    def __init__(self, max_overlapping: int = 3) -> None:
        if max_overlapping < 1:
            raise ValueError(
                f"max_overlapping must be >= 1, got {max_overlapping}"
            )
        self.max_overlapping = max_overlapping

    def decide(self, spec, path, service) -> AdmissionDecision:
        t = spec.start_s
        center = path.position_at(t)
        overlapping = 0
        for other in service.live_session_specs(at=t):
            other_center = other.path.position_at(t)
            reach = spec.radius_m + other.spec.radius_m
            if center.distance_sq_to(other_center) <= reach * reach:
                overlapping += 1
                if overlapping >= self.max_overlapping:
                    return AdmissionDecision.reject(
                        f"area cap: {overlapping} live sessions already "
                        f"overlap this query area (cap {self.max_overlapping})"
                    )
        return AdmissionDecision.accept()

    def describe(self) -> str:
        return f"per-area-cap(max_overlapping={self.max_overlapping})"


class PhaseAssignPolicy(AdmissionPolicy):
    """Accept (per an inner policy) but spread session phases.

    The n-th admitted session is offset by ``(n % slots) / slots`` of its
    *own* period, so deadlines of a simultaneous burst land in distinct
    phase slots instead of one synchronized report storm.  Offsets are
    deterministic in admission order — resubmitting the same fleet yields
    the same phases.
    """

    name = "phase-assign"

    def __init__(
        self, slots: int = 4, inner: Optional[AdmissionPolicy] = None
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = slots
        self.inner = inner or AcceptAllPolicy()

    def decide(self, spec, path, service) -> AdmissionDecision:
        verdict = self.inner.decide(spec, path, service)
        if not verdict.admitted:
            return verdict
        slot = service.admitted_count() % self.slots
        offset = (slot / self.slots) * spec.period_s
        return AdmissionDecision.accept(offset_s=verdict.start_offset_s + offset)

    def describe(self) -> str:
        return f"phase-assign(slots={self.slots}, inner={self.inner.describe()})"


#: policy-name registry for scenario specs and the CLI
ADMISSION_POLICIES = {
    AcceptAllPolicy.name: AcceptAllPolicy,
    PerAreaCapPolicy.name: PerAreaCapPolicy,
    PhaseAssignPolicy.name: PhaseAssignPolicy,
}


def make_admission_policy(config: Optional[Dict] = None) -> AdmissionPolicy:
    """Build a policy from a plain dict (the declarative scenario form).

    ``{"policy": "per-area-cap", "max_overlapping": 2}`` — every key other
    than ``policy`` is a parameter of the policy's constructor, loaded by
    :func:`repro.plain.load`, so a key it does not take or a value of the
    wrong type is refused by name.  ``None`` or an empty dict yields
    :class:`AcceptAllPolicy`.  ``phase-assign``'s ``inner`` is an object
    of the same shape.
    """
    if not config:
        return AcceptAllPolicy()
    params = dict(config)
    name = params.pop("policy", AcceptAllPolicy.name)
    cls = ADMISSION_POLICIES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(
            f"unknown admission policy {name!r}; "
            f"expected one of {sorted(ADMISSION_POLICIES)}"
        )
    if isinstance(params.get("inner"), dict):
        params["inner"] = make_admission_policy(params["inner"])
    return load(cls, params, f"{name} admission", parameters(cls) | {"policy"})
