import pytest

from becmetrology import physconfig

_acceptance_lines = []


def acceptance_report(line: str) -> None:
    """Collect a one-line verdict to echo at the end of the pytest run."""
    _acceptance_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def rb87():
    return physconfig.rb87()


@pytest.fixture(scope="session")
def typical():
    return physconfig.typical_species()

