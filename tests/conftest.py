"""Shared fixtures plus the acceptance-criteria reporter.

test_acceptance.py records one line per criterion; the hook below replays
them in the terminal summary so every run shows the full pass/fail table.
"""

import pytest

from covsum.corpus import Document, ReferenceSummary

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_doc(doc_id, sents, refs=()):
    """Document from plain token lists; refs are lists of token lists."""
    return Document(
        id=doc_id,
        sentences=tuple(tuple(s) for s in sents),
        references=tuple(
            ReferenceSummary(tuple(tuple(s) for s in ref)) for ref in refs
        ),
    )


@pytest.fixture
def tiny_docs():
    return [
        make_doc(
            "d0",
            [["cats", "purr"], ["dogs", "bark"], ["cats", "nap", "often"]],
            refs=[[["cats", "purr"], ["dogs", "bark"]]],
        ),
        make_doc(
            "d1",
            [["rain", "falls"], ["sun", "shines"], ["rain", "rain", "again"]],
            refs=[[["rain", "falls"]], [["sun", "shines"]]],
        ),
    ]
