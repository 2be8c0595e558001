"""README statements that must track the code."""

import os
import re

from nc_lab.harness import MODEL_KINDS
from nc_lab.optim import OPTIMIZER_KINDS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _backticked_after(text: str, lead: str, end: str) -> list:
    """Backticked names between ``lead`` and the next ``end``."""
    start = text.index(lead) + len(lead)
    return re.findall(r"`([a-z0-9_]+)`", text[start:text.index(end, start)])


def test_readme_kind_lists_match_code():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    assert sorted(_backticked_after(text, "Model kinds are ", ".")) == sorted(MODEL_KINDS)
    assert sorted(_backticked_after(text, "Optimizers are ", ";")) == sorted(OPTIMIZER_KINDS)
