"""Benchmark: regenerate Table 1 (attestation executable size)."""

from repro.experiments import table1_codesize
from tests.experiments.paper_checks import matches_paper


def test_table1_regeneration(benchmark):
    rows = benchmark(table1_codesize.run)
    assert matches_paper(rows)
    by_mac = {row["mac"]: row for row in rows}
    # ERASMUS needs slightly less ROM on SMART+, slightly more on HYDRA.
    for mac in ("hmac-sha1", "hmac-sha256", "keyed-blake2s"):
        assert by_mac[mac]["smart+/erasmus"] < by_mac[mac]["smart+/on-demand"]
    for mac in ("hmac-sha256", "keyed-blake2s"):
        assert by_mac[mac]["hydra/erasmus"] > by_mac[mac]["hydra/on-demand"]
