"""The repo-specific rule set.

Each checker protects one invariant the reproduction's correctness or
threat model depends on; see ``INVARIANTS.md`` at the repo root for
the catalog.  ``all_checkers()`` is the registry the CLI and the CI
gate run; adding a rule means adding a module here and listing its
class below.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.statics.engine import Checker
from repro.statics.checkers.constant_time import ConstantTimeChecker
from repro.statics.checkers.determinism import DeterminismChecker
from repro.statics.checkers.exact_fraction import ExactFractionChecker
from repro.statics.checkers.lock_discipline import LockDisciplineChecker
from repro.statics.checkers.codec import CodecExhaustivenessChecker
from repro.statics.checkers.dead_public import DeadPublicChecker
from repro.statics.checkers.obs_seam import ObsSeamChecker

CHECKER_CLASSES = (
    ConstantTimeChecker,
    DeterminismChecker,
    ExactFractionChecker,
    LockDisciplineChecker,
    CodecExhaustivenessChecker,
    ObsSeamChecker,
    DeadPublicChecker,
)


def all_checkers(select: Optional[Sequence[str]] = None) -> List[Checker]:
    """Instantiate the registry, optionally restricted to some rules."""
    checkers = [cls() for cls in CHECKER_CLASSES]
    if select is None:
        return checkers
    wanted = set(select)
    known = {checker.rule for checker in checkers}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}")
    return [checker for checker in checkers if checker.rule in wanted]


__all__ = ["CHECKER_CLASSES", "all_checkers"]
