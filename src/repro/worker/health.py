"""The fleet health aggregate: verification outcomes folded exactly.

:class:`FleetHealth` folds verification reports into counts, flagged
devices and a mean freshness.  The verifier keeps one for the whole
fleet; each process worker builds one part per task, which the parent
merges (:meth:`FleetHealth.merge`).  It lives beside the worker loop,
so a worker process imports it without the fleet package; elsewhere,
import it as :class:`repro.fleet.FleetHealth`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Optional, Set

from repro.core.verification import DeviceStatus, VerificationReport


@dataclass
class FleetHealth:
    """Aggregate health of a fleet across one or more collection rounds."""

    reports_total: int = 0
    measurements_verified: int = 0
    status_counts: Dict[str, int] = field(
        default_factory=lambda: {status.value: 0 for status in DeviceStatus})
    devices_seen: Set[str] = field(default_factory=set)
    flagged_devices: Set[str] = field(default_factory=set)
    missing_intervals_total: int = 0
    # Freshness accumulates as an exact rational so that summation is
    # associative: merging a process worker's aggregate part then reads
    # back the *same* value (bit for bit) as recording every report
    # into one aggregate, which the worker byte-identity tests rely on.
    # Plain float addition would make the checkpoint differ in the last
    # ulp depending on how reports were split across workers.
    _freshness_sum: Fraction = Fraction(0)
    _freshness_count: int = 0

    def record(self, report: VerificationReport) -> None:
        """Fold one report into the aggregate."""
        self.reports_total += 1
        self.measurements_verified += report.measurement_count
        self.status_counts[report.status.value] += 1
        self.devices_seen.add(report.device_id)
        if report.detected_infection():
            self.flagged_devices.add(report.device_id)
        self.missing_intervals_total += report.missing_intervals
        if report.freshness is not None:
            self._freshness_sum += Fraction(report.freshness)
            self._freshness_count += 1

    def merge(self, other: "FleetHealth") -> None:
        """Fold another aggregate into this one (process worker parts)."""
        self.reports_total += other.reports_total
        self.measurements_verified += other.measurements_verified
        for status, count in other.status_counts.items():
            self.status_counts[status] = \
                self.status_counts.get(status, 0) + count
        self.devices_seen |= other.devices_seen
        self.flagged_devices |= other.flagged_devices
        self.missing_intervals_total += other.missing_intervals_total
        self._freshness_sum += other._freshness_sum
        self._freshness_count += other._freshness_count

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def devices_total(self) -> int:
        """Number of distinct devices that produced at least one report."""
        return len(self.devices_seen)

    @property
    def healthy_fraction(self) -> float:
        """Fraction of reports that verified fully healthy."""
        if not self.reports_total:
            return 0.0
        return self.status_counts[DeviceStatus.HEALTHY.value] / \
            self.reports_total

    @property
    def mean_freshness(self) -> Optional[float]:
        """Mean freshness over reports that carried measurements."""
        if not self._freshness_count:
            return None
        return float(Fraction(self._freshness_sum) / self._freshness_count)

    def count(self, status: DeviceStatus) -> int:
        """Number of reports with the given status."""
        return self.status_counts[status.value]

    # ------------------------------------------------------------------
    # Persistence codec
    # ------------------------------------------------------------------
    def to_row(self) -> Dict[str, object]:
        """Flatten into a stable, JSON-friendly row.

        Sets are emitted sorted so equal aggregates always serialize to
        identical rows — the property :class:`repro.store.StateStore`
        checkpoints rely on.
        """
        return {
            "reports_total": self.reports_total,
            "measurements_verified": self.measurements_verified,
            "status_counts": dict(sorted(self.status_counts.items())),
            "devices_seen": sorted(self.devices_seen),
            "flagged_devices": sorted(self.flagged_devices),
            "missing_intervals_total": self.missing_intervals_total,
            "freshness_sum": self._encode_freshness_sum(),
            "freshness_count": self._freshness_count,
        }

    def _encode_freshness_sum(self):
        """The exact accumulator in its canonical JSON form.

        A plain JSON float whenever the exact sum is representable as
        one (every historical snapshot is, so re-checkpointing restored
        state stays byte-identical); otherwise an exact
        ``[numerator, denominator]`` pair, so the row round-trips
        losslessly and merged aggregates serialize identically to
        single-pass ones.
        """
        exact = Fraction(self._freshness_sum)
        as_float = float(exact)
        if Fraction(as_float) == exact:
            return as_float
        return [exact.numerator, exact.denominator]

    @staticmethod
    def _decode_freshness_sum(value) -> Fraction:
        """Reverse :meth:`_encode_freshness_sum` (old float rows too)."""
        if isinstance(value, (list, tuple)):
            numerator, denominator = value
            return Fraction(int(numerator), int(denominator))
        return Fraction(float(value))

    @classmethod
    def from_row(cls, row: Mapping[str, object]) -> "FleetHealth":
        """Rebuild an aggregate from its persisted row."""
        counts = {status.value: 0 for status in DeviceStatus}
        counts.update({str(status): int(count) for status, count
                       in dict(row.get("status_counts", {})).items()})
        return cls(
            reports_total=int(row.get("reports_total", 0)),
            measurements_verified=int(row.get("measurements_verified", 0)),
            status_counts=counts,
            devices_seen=set(row.get("devices_seen", ())),
            flagged_devices=set(row.get("flagged_devices", ())),
            missing_intervals_total=int(
                row.get("missing_intervals_total", 0)),
            _freshness_sum=cls._decode_freshness_sum(
                row.get("freshness_sum", 0.0)),
            _freshness_count=int(row.get("freshness_count", 0)))

    def summary(self) -> str:
        """Multi-line, human-readable fleet-health digest."""
        freshness = "n/a" if self.mean_freshness is None \
            else f"{self.mean_freshness:.1f}s"
        lines = [
            f"fleet health: {self.devices_total} device(s), "
            f"{self.reports_total} report(s), "
            f"{self.measurements_verified} measurement(s) verified",
            "  status: " + ", ".join(
                f"{status}={count}"
                for status, count in sorted(self.status_counts.items())
                if count),
            f"  healthy fraction: {self.healthy_fraction:.1%}, "
            f"mean freshness: {freshness}, "
            f"missing intervals: {self.missing_intervals_total}",
        ]
        if self.flagged_devices:
            flagged = ", ".join(sorted(self.flagged_devices)[:8])
            if len(self.flagged_devices) > 8:
                flagged += ", ..."
            lines.append(f"  flagged devices: {flagged}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"FleetHealth(devices={self.devices_total}, "
                f"reports={self.reports_total}, "
                f"healthy_fraction={self.healthy_fraction:.3f}, "
                f"flagged={len(self.flagged_devices)})")
