import pytest

from cofrig import verify
from cofrig.matroids import ExplicitMatroid
from cofrig.verify import SUITE_NAMES, Check, SuiteResult, run_suite


def test_suite_names_are_stable():
    assert set(SUITE_NAMES) == {
        "axioms",
        "sequence-sweep",
        "elevation",
        "dress",
        "connectivity",
        "extensions",
    }


def test_checks_compare_by_value():
    assert Check("k5", True) == Check("k5", True, "")
    assert hash(Check("k5", True)) == hash(Check("k5", True, ""))
    assert Check("k5", True) != Check("k5", False)
    result = SuiteResult("axioms", 13, (Check("k5", True), Check("k6", False)), 0.5)
    assert not result.passed
    assert result.to_payload()["checks"][1] == {"name": "k6", "passed": False,
                                                "detail": ""}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_connectivity_suite_passes_and_serializes():
    result = run_suite("connectivity", seed=13)
    assert result.passed
    payload = result.to_payload()
    assert payload["suite"] == "connectivity"
    assert payload["passed"] is True
    assert "elapsed" not in payload  # payloads must be byte-deterministic
    assert all(c["passed"] for c in payload["checks"])
    assert "pass" in result.summary()


def test_extensions_suite_respects_rounds():
    result = run_suite("extensions", seed=7)
    assert result.passed
    assert result.checks[0].detail.startswith("200 random extensions")


class _CorruptedK6:
    """The shared K6 oracle seen through a copy of its rank table with some
    entries changed; every other query goes to the real oracle."""

    def __init__(self, oracle, changes: dict[int, int]):
        self._real = oracle
        self._ranks = list(oracle.rank_table())
        for mask, delta in changes.items():
            self._ranks[mask] += delta

    def __getattr__(self, name):
        return getattr(self._real, name)

    def rank_table(self):
        return self._ranks

    def explicit_matroid(self):
        return ExplicitMatroid(self._ranks)


@pytest.mark.parametrize("changes, detail", [
    ({0x1234: +1, 0x7fff: -1},
     "mask 0x1234: sequence value 5, rank 6; "
     "mask 0x7fff: sequence value 12, rank 11"),
    ({0x1: +1, 0x2: +1, 0x4: +1, 0x1234: +1, 0x7fff: -1},
     "mask 0x1: sequence value 1, rank 2; mask 0x2: sequence value 1, rank 2; "
     "mask 0x4: sequence value 1, rank 2 (+2 more)"),
], ids=["two", "five"])
def test_sequence_sweep_reports_table_mismatches(monkeypatch, changes, detail):
    shared = verify._oracle
    stub = _CorruptedK6(shared(6), changes)
    monkeypatch.setattr(verify, "_oracle",
                        lambda n, s=2: stub if (n, s) == (6, 2) else shared(n, s))
    checks = {c.name: c for c in run_suite("sequence-sweep", seed=13).checks}
    assert not checks["k6-exhaustive-sweep"].passed
    assert checks["k6-exhaustive-sweep"].detail == detail
    assert checks["sampled-certificates"].passed
