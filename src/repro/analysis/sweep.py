"""Generic parameter-sweep helper used by the experiment harnesses."""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass
class SweepResult:
    """One point of a parameter sweep: the parameters and the outcome."""

    parameters: Dict[str, Any]
    outcome: Any


@dataclass
class ParameterSweep:
    """Cartesian-product parameter sweep.

    ``parameters`` maps parameter names to the list of values to try;
    :meth:`run` calls ``function(**combination)`` for every combination
    and collects :class:`SweepResult` objects, preserving order.
    """

    parameters: Dict[str, Sequence[Any]]
    results: List[SweepResult] = field(default_factory=list)

    def combinations(self) -> List[Dict[str, Any]]:
        """All parameter combinations, in deterministic order."""
        names = list(self.parameters)
        value_lists = [list(self.parameters[name]) for name in names]
        return [dict(zip(names, values))
                for values in itertools.product(*value_lists)]

    def run(self, function: Callable[..., Any],
            max_workers: Optional[int] = None) -> List[SweepResult]:
        """Evaluate ``function`` on every combination and store the results.

        With ``max_workers`` greater than one, combinations are
        evaluated on a thread pool (results keep combination order).
        Sweep functions dominated by stdlib crypto or simulation bursts
        overlap well; pass ``None`` (the default) for strictly serial
        evaluation.
        """
        combinations = self.combinations()
        if max_workers is not None and max_workers > 1 and \
                len(combinations) > 1:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                outcomes = list(pool.map(
                    lambda combination: function(**combination),
                    combinations))
        else:
            outcomes = [function(**combination)
                        for combination in combinations]
        self.results = [
            SweepResult(parameters=combination, outcome=outcome)
            for combination, outcome in zip(combinations, outcomes)
        ]
        return self.results

    def column(self, parameter: str) -> List[Any]:
        """Values of one parameter across the collected results."""
        return [result.parameters[parameter] for result in self.results]

    def outcomes(self) -> List[Any]:
        """All outcomes, in run order."""
        return [result.outcome for result in self.results]
