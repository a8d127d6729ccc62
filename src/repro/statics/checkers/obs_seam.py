"""Rule ``obs-seam``: hot paths instrument through ``Observability``.

The observability layer is threaded through the stack as one
:class:`repro.obs.service.Observability` object whose null default is
pinned at zero cost (``benchmarks/test_obs_overhead.py``).  Hot-path
modules that import the metric/tracing *primitives* directly —
``MetricsRegistry``, ``Counter``, ``SpanTracer`` — bypass that seam:
their instruments exist (and cost allocations, label lookups, lock
acquisitions) even when observability is off, and their metrics never
reach the fleet's registry, exposition or campaign absorption.

Flagged inside the hot-path packages (fleet, core, crypto, net, sim,
store, worker): imports from ``repro.obs.metrics`` / ``repro.obs.tracing``,
and direct construction of the primitive classes.  Importing the seam
itself (``repro.obs.service``: ``Observability``,
``NULL_OBSERVABILITY``) stays legal, as do the experiments/examples
harnesses, which own their registries deliberately.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statics.engine import Checker, FileContext, Finding, terminal_name

_HOT_MARKERS = ("repro/fleet/", "repro/core/", "repro/crypto/",
                "repro/net/", "repro/sim/", "repro/store/", "repro/worker/")
_PRIMITIVE_MODULES = ("repro.obs.metrics", "repro.obs.tracing")
_PRIMITIVE_NAMES = {"MetricsRegistry", "SpanTracer", "Counter", "Gauge",
                    "Histogram"}


class ObsSeamChecker(Checker):
    rule = "obs-seam"
    description = ("hot-path modules must instrument via the "
                   "Observability seam, not raw metric primitives")
    invariant = ("the null Observability default keeps disabled hot "
                 "paths structurally identical to uninstrumented code "
                 "(zero cost), and every live instrument lands in the "
                 "one fleet registry")
    applies_to_tests = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not any(marker in ctx.relpath for marker in _HOT_MARKERS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module in _PRIMITIVE_MODULES:
                names = ", ".join(alias.name for alias in node.names)
                yield ctx.finding(
                    self.rule, node,
                    f"hot-path import of {names} from {node.module}; "
                    f"instrument through repro.obs.service.Observability "
                    f"so the null default stays zero-cost")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _PRIMITIVE_MODULES:
                        yield ctx.finding(
                            self.rule, node,
                            f"hot-path import of {alias.name}; "
                            f"instrument through the Observability seam")
            elif isinstance(node, ast.Call):
                name = terminal_name(node.func)
                if name in _PRIMITIVE_NAMES:
                    yield ctx.finding(
                        self.rule, node,
                        f"hot-path construction of {name}(); obtain "
                        f"instruments from the Observability object "
                        f"threaded via Fleet.provision(obs=...)")
