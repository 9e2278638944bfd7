"""The scored outcome of a multi-user run.

A :class:`WorkloadResult` is what ``QueryBackend.close()`` returns: every
admitted session's :class:`~repro.workload.session.SessionResult`, in
submission order, with the fleet-level summaries the CLI and the
experiment harness print.  The sessions themselves are admitted, started
and torn down by :class:`~repro.api.service.MobiQueryService`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .session import SessionResult


@dataclass
class WorkloadResult:
    """All users' scored sessions from one run."""

    sessions: List[SessionResult]

    @property
    def num_users(self) -> int:
        return len(self.sessions)

    def session_for(self, user_id: int) -> SessionResult:
        """The result of one user's session."""
        for session in self.sessions:
            if session.user_id == user_id:
                return session
        raise KeyError(f"no session for user {user_id}")

    def success_ratios(self) -> List[float]:
        """Per-user success ratios in user order."""
        return [s.success_ratio for s in self.sessions]

    def mean_success_ratio(self) -> float:
        ratios = self.success_ratios()
        return sum(ratios) / len(ratios) if ratios else 0.0

    def min_success_ratio(self) -> float:
        ratios = self.success_ratios()
        return min(ratios) if ratios else 0.0

    def mean_fidelity(self) -> float:
        if not self.sessions:
            return 0.0
        return sum(s.mean_fidelity for s in self.sessions) / len(self.sessions)
