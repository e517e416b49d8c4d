"""Every shipped config must resolve against its subcommand schema and run.

Each config's standard output must also match, byte for byte, the recorded
output in ``tests/golden/<config>.out``: a refactor that moves a printed
digit shows up here.  Regenerate a golden only for a change that is meant
to move the numbers, and say why in the change log.
"""

import json
from pathlib import Path

import pytest

from phasekit.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def test_config_directory_is_populated():
    assert len(CONFIGS) == 12


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_runs_clean(path, capsys):
    rc = main(["--config", str(path)])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert out.strip()

    declared = json.loads(path.read_text())["subcommand"]
    first = out.splitlines()[0]
    if first.startswith("{"):
        echoed = json.loads(out)["config"]["subcommand"]
        assert echoed == declared
    else:
        assert first == f"# phasekit {declared}"


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_output_matches_its_golden(path, capsys):
    assert main(["--config", str(path)]) == 0
    out, _ = capsys.readouterr()
    golden = (GOLDEN_DIR / f"{path.stem}.out").read_text(encoding="utf-8")
    assert out == golden
