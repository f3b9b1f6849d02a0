import math
import sys
from pathlib import Path

import pytest

import disclim

FIXTURES = Path(__file__).parent / "fixtures"


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdicts after capture is torn down.

    Default capture redirects file descriptor 1, so lines printed while the
    gate tests run never reach the console on success; the terminal reporter
    is the one channel that always does.
    """
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(module, "VERDICT_LINES", None)
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)


def census_by_loop(x, y) -> dict[str, int]:
    """Every unordered index pair counted as concordant, discordant or tied."""
    counts = dict(concordant=0, discordant=0, ties_x=0, ties_y=0, ties_both=0)
    for j in range(len(x)):
        for i in range(j):
            dx = (x[j] > x[i]) - (x[j] < x[i])
            dy = (y[j] > y[i]) - (y[j] < y[i])
            if dx == 0 and dy == 0:
                counts["ties_both"] += 1
            elif dx == 0:
                counts["ties_x"] += 1
            elif dy == 0:
                counts["ties_y"] += 1
            else:
                counts["concordant" if dx == dy else "discordant"] += 1
    return counts


def assert_kendall_matches_loop(x, y) -> None:
    """Both variants of ``kendall`` against the taus of ``census_by_loop``'s counts."""
    counts = census_by_loop(x, y)
    pairs = sum(counts.values())
    surplus = counts["concordant"] - counts["discordant"]
    assert disclim.kendall(x, y, "tau-a") == surplus / pairs
    untied = ((pairs - counts["ties_x"] - counts["ties_both"])
              * (pairs - counts["ties_y"] - counts["ties_both"]))
    if untied == 0:
        with pytest.raises(disclim.ZeroVarianceError):
            disclim.kendall(x, y, "tau-b")
    else:
        assert disclim.kendall(x, y, "tau-b") == surplus / math.sqrt(untied)


def fixture_bytes(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


def fixture_table(name: str) -> disclim.RawTable:
    return disclim.parse_delimited(fixture_bytes(name), source_path=name)


@pytest.fixture(scope="session")
def bundled() -> disclim.Corpus:
    return disclim.load_bundled_corpus()


@pytest.fixture
def region_table() -> disclim.RawTable:
    return fixture_table("region_sample.csv")


@pytest.fixture
def type_table() -> disclim.RawTable:
    return fixture_table("type_sample.csv")


@pytest.fixture
def anomaly_table() -> disclim.RawTable:
    return fixture_table("anomaly_sample.csv")


@pytest.fixture
def micro_corpus(region_table, type_table, anomaly_table) -> disclim.Corpus:
    return disclim.build_corpus([region_table, type_table, anomaly_table])
