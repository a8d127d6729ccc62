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


@pytest.fixture
def opened():
    """Register stores (or fleets) to be closed when the test ends.

    A store left to the garbage collector reaches its medium only when
    it is collected, which would hide exactly the durability bugs these
    tests look for.  ``close`` is idempotent on every backend, so a
    test may close a registered store itself.
    """
    resources = []

    def register(resource):
        resources.append(resource)
        return resource

    yield register
    for resource in reversed(resources):
        resource.close()
