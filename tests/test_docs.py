"""README statements that must track the code."""

import argparse
import inspect
import os
import re

import nc_lab
from nc_lab.cli import ORACLE_ROWS, build_parser, main
from nc_lab.harness import _CONFIG_CASTS, _UNREAD_FIELDS, MODEL_KINDS, THEOREM_CHECKS
from nc_lab.optim import _STEPS, OPTIMIZER_KINDS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _fenced_block(text: str, lead: str, lang: str) -> str:
    """Body of the first ```lang block after ``lead``."""
    start = text.index("```" + lang + "\n", text.index(lead)) + len(lang) + 4
    return text[start:text.index("```", start)]


def _backticked_after(text: str, lead: str, end: str) -> list:
    """Backticked names between ``lead`` and the next ``end``."""
    start = text.index(lead) + len(lead)
    return re.findall(r"`([a-z0-9_]+)`", text[start:text.index(end, start)])


def test_readme_kind_lists_match_code():
    text = _readme()
    assert sorted(_backticked_after(text, "Model kinds are ", ".")) == sorted(MODEL_KINDS)
    assert sorted(_backticked_after(text, "Optimizers are ", ";")) == sorted(OPTIMIZER_KINDS)


def _listed(text: str, lead: str, end: str) -> dict:
    """name -> rest of line, of the ``- `name`: ...`` lines between lead and end."""
    start = text.index(lead)
    return dict(re.findall(r"^- `(\w+)`: (.*(?:\n  .*)*)$", text[start:text.index(end, start)],
                           flags=re.MULTILINE))


def test_readme_lists_the_keys_each_model_kind_does_not_read():
    listed = _listed(_readme(), "The keys that each model kind does not read",
                     "A config that sets one")
    assert sorted(listed) == sorted(MODEL_KINDS)
    for kind, line in listed.items():
        unread = [key for key, (target, _) in _CONFIG_CASTS.items()
                  if target in _UNREAD_FIELDS[kind]]
        assert sorted(re.findall(r"`([a-z_.]+)`", line)) == sorted(unread), kind


def test_readme_lists_the_keys_each_optimizer_kind_reads():
    listed = _listed(_readme(), "Optimizers are ", "A config that sets another optimizer key")
    assert sorted(listed) == sorted(OPTIMIZER_KINDS)
    for kind, line in listed.items():
        reads = ["optimizer." + name for name in _STEPS[kind][0]]
        assert re.findall(r"`([a-z_.0-9]+)`", line) == reads, kind


def test_readme_lists_the_flags_each_oracle_takes():
    listed = _listed(_readme(), "An oracle\ntakes the flags", "Theorem 2's")
    assert sorted(listed) == sorted(ORACLE_ROWS)
    for theorem, rows in ORACLE_ROWS.items():
        takes = ["--" + name.replace("_", "-") for name in inspect.signature(rows).parameters]
        assert re.findall(r"`(--[a-z0-9-]+)`", listed[theorem]) == takes, theorem


def test_readme_layout_names_every_module():
    block = _fenced_block(_readme(), "## Layout", "")
    named = re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE)
    modules = [f for f in os.listdir(os.path.dirname(nc_lab.__file__))
               if f.endswith(".py") and f != "__init__.py"]
    assert sorted(named) == sorted(modules)


def test_readme_quick_start_output_matches_code(tmp_path, capsys):
    text = _readme()
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(_fenced_block(text, "## Quick start", "ini"), encoding="utf-8")
    session = _fenced_block(text, "and train:", "sh").splitlines()
    assert session[0] == "$ nc-lab train --config demo.cfg"
    assert main(["train", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    shown = [line for line in session[1:] if line != "..."]
    assert len(shown) == 3
    for line, real in zip(shown, out):
        prefix = line[:-3] if line.endswith("...") else line
        assert real.startswith(prefix), (line, real)


def test_readme_python_example_prints_collapsed_metrics(capsys):
    code = _fenced_block(_readme(), "available programmatically", "python")
    exec(compile(code, "README.md", "exec"), {})
    nc2, nc3, nc4 = (float(v) for v in capsys.readouterr().out.split())
    assert abs(nc2) < 1e-8 and abs(nc3) < 1e-8
    assert nc4 == 1.0


def test_readme_lists_the_flags_each_check_takes():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {action.dest: action.option_strings[-1]
             for action in sub.choices["check-theorem"]._actions
             if action.option_strings and action.dest not in ("help", "out")}
    text = _readme()
    start = text.index("A check takes the flags")
    listed = dict(re.findall(r"^- `(\w+)`: (.*)$", text[start:text.index("Any other flag", start)],
                             flags=re.MULTILINE))
    assert sorted(listed) == sorted(THEOREM_CHECKS)
    for theorem, check in THEOREM_CHECKS.items():
        takes = [flags[name] for name in inspect.signature(check).parameters if name in flags]
        assert re.findall(r"`(--[a-z-]+)`", listed[theorem]) == takes, theorem
