"""The self-gate: the repo's own tree lints clean under its baseline.

This is the same check CI runs.  A finding here means a change broke
one of the cataloged invariants (see ``INVARIANTS.md``) — fix it,
pragma it with a justification, or (for pre-existing debt only) add a
justified entry to ``statics-baseline.json``.
"""

from pathlib import Path

from repro.statics.baseline import Baseline
from repro.statics.checkers import all_checkers
from repro.statics.engine import scan_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def scan_repo():
    baseline = Baseline.load(REPO_ROOT / "statics-baseline.json")
    return scan_paths([REPO_ROOT / root for root in
                       ("src", "tests", "examples", "benchmarks")],
                      all_checkers(), baseline=baseline,
                      relative_to=REPO_ROOT)


def test_repo_tree_is_clean():
    result = scan_repo()
    assert result.clean, "\n" + "\n".join(
        finding.render() for finding in result.findings)
    assert result.files_scanned > 100  # the scan really saw the tree


def test_every_baseline_entry_still_matches_a_real_finding():
    """Baseline entries must not outlive the findings they excuse."""
    baseline = Baseline.load(REPO_ROOT / "statics-baseline.json")
    result = scan_repo()
    matched = {(finding.rule, finding.path, finding.message)
               for finding in result.baselined}
    stale = [entry for entry in baseline.entries
             if entry.key not in matched]
    assert not stale, "\n" + "\n".join(
        f"stale baseline entry: {entry.rule} at {entry.path}"
        for entry in stale)


def test_all_seven_checkers_are_active():
    assert len(all_checkers()) == 7
