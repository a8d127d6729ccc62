"""Every ``__all__`` in the package names something that exists.

A deleted class left in an ``__all__`` list only fails when someone
star-imports the module; this walk fails the suite instead.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name.rsplit(".", 1)[-1] != "__main__")

#: Names deleted with the legacy single-device verifiers, the
#: push/windowed observability surface, the definitions only tests
#: called (the ``dead-public`` rule) and the per-call, per-object and
#: registry ways of choosing a crypto provider, the store replay
#: and row helpers the one journal replay replaced, and the
#: simulation event object the ``(time, seq, callback)`` heap
#: replaced; no package may export them.
DELETED = {
    "BaseVerifier", "DEFAULT_RECENT_WINDOW", "ErasmusVerifier",
    "OnDemandProver", "OnDemandVerifier", "RemoteWriteExporter",
    "AttestationWindowRule", "FleetHealthSink", "FreshnessRule",
    "MacDescriptor", "PeriodicTimer", "TimerExpiration", "available_macs",
    "blake2s_digest", "collection_freshness", "detection_curve",
    "load_trace", "render_rollup_html", "rollup_summaries", "sha1_digest",
    "available_backends", "register_backend", "resolve_backend",
    "set_default_backend", "hmac_digest", "register_mac",
    "apply_report_row", "report_to_row", "Event", "EventKind",
}


def test_every_all_name_resolves_once():
    problems = []
    for name in MODULES:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        problems += [f"{name}.{item} is missing" for item in exported
                     if not hasattr(module, item)]
        problems += [f"{name}.{item} is listed twice"
                     for item in sorted(set(exported))
                     if exported.count(item) > 1]
    assert problems == []


@pytest.mark.parametrize("package", ["repro.core", "repro.fleet",
                                     "repro.obs", "repro.analysis",
                                     "repro.crypto", "repro.hw",
                                     "repro.sim", "repro.store"])
def test_deleted_names_stay_deleted(package):
    module = importlib.import_module(package)
    assert DELETED.isdisjoint(module.__all__)
    assert not any(hasattr(module, item) for item in DELETED)
