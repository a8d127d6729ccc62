"""Store tests run under the runtime lock-order witness.

Any product lock a store path takes is checked for order inversions
and blocking calls while held, which would deadlock or convoy a round.
"""

import pytest

from repro.statics.runtime import witness


@pytest.fixture(autouse=True)
def lock_witness():
    with witness() as active:
        yield active
    assert not active.violations, "\n".join(
        str(violation) for violation in active.violations)
