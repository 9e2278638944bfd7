"""List-scan session bookkeeping — the oracle of ``SessionIndex``.

Until PR 17 ``MobiQueryService.submit`` answered "which user id?" and
"who is live?" by walking every handle the service had ever issued, once
for each question.  ``repro.api.service.SessionIndex`` answers both from
state that follows the live sessions; these are the two scans it
replaced, moved here unchanged so ``tests/test_session_index.py`` can
require the same ids, the same ``ValueError`` and the same live list, in
the same order, from both.
"""

from typing import List, Optional

from repro.api.service import STATUS_CANCELLED, SessionHandle


def resolve_user_id(handles: List[SessionHandle], user_id: Optional[int]) -> int:
    """The user-identity rule: lowest-free auto-assignment, live-collision
    rejection for explicit ids.

    Auto-assignment skips every id an *accepted* session ever used
    (cancelled included: their streams were consumed); an explicit id
    only collides with a live (accepted, uncancelled) session.
    """
    if user_id is None:
        used = {
            h.spec.user_id
            for h in handles
            if h.accepted and h.spec is not None
        }
        candidate = 0
        while candidate in used:
            candidate += 1
        return candidate
    if any(
        h.spec is not None
        and h.spec.user_id == user_id
        and h.accepted
        and h.status != STATUS_CANCELLED
        for h in handles
    ):
        raise ValueError(
            f"user {user_id} already has a live session; cancel it first "
            f"or submit without a user_id"
        )
    return user_id


def live_session_specs(handles: List[SessionHandle], at: float) -> List[SessionHandle]:
    """Admitted, uncancelled sessions whose lifetime covers time ``at``."""
    live = []
    for handle in handles:
        if not handle.accepted or handle.status == STATUS_CANCELLED:
            continue
        spec = handle.spec
        assert spec is not None
        if spec.start_s <= at < spec.end_s:
            live.append(handle)
    return live
