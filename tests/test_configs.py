"""Every shipped config must resolve against its subcommand schema and run.

Each config's standard output must also match, byte for byte, the recorded
output in ``tests/golden/<config>.<format>``, in the format the config names
and in the other one: a refactor that moves a printed digit, in either
format, shows up here.  Regenerate a golden only for a change that is meant
to move the numbers, and say why in the change log.  ``tests/golden/commands``
pins, the same way, commands whose tables no shipped config prints.
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


def _golden_cases():
    """Each config in its own format (id: the file name) and in the other one."""
    for path in CONFIGS:
        own = json.loads(path.read_text()).get("format", "json")
        for fmt in ("json", "csv"):
            yield pytest.param(path, fmt, id=path.name if fmt == own else f"{path.name}-as-{fmt}")


@pytest.mark.parametrize("path, fmt", _golden_cases())
def test_config_output_matches_its_golden(path, fmt, capsys):
    assert main(["--config", str(path), "--format", fmt]) == 0
    out, _ = capsys.readouterr()
    golden = (GOLDEN_DIR / f"{path.stem}.{fmt}").read_text(encoding="utf-8")
    assert out == golden


TILTED = '{"family": "polynomial", "coeffs": [0, 0.3, -2, 0, 0.5]}'
HARMONIC = '{"family": "harmonic", "m": 1.0, "omega": 1.0}'

#: golden stem -> (argv, formats pinned)
COMMANDS = {
    # two minima, then a window that holds none: an empty table
    "equilibrium-tilted": (["equilibrium", "--potential", TILTED], ("json", "csv")),
    "equilibrium-empty": (["equilibrium", "--potential", TILTED, "--window", "3:5"],
                          ("json", "csv")),
    "oracle-eigenvectors": (["oracle", "--potential", HARMONIC, "--levels", "2",
                             "--grid-size", "256", "--box", "-6:6", "--eigenvectors", "on"],
                            ("json", "csv")),
    # V = (q^2 - 16)^2: the default box holds both minima behind the barrier of 256, so the
    # levels come in degenerate pairs
    "oracle-tall-barrier": (["oracle", "--potential",
                             '{"family": "polynomial", "coeffs": [256, 0, -32, 0, 1]}',
                             "--levels", "4", "--grid-size", "1024"], ("json", "csv")),
    # seeded solves at M = 32768, whose start vectors come from the coarse grid: the
    # rotor's from ARPACK on the 4096-point ring, the harmonic well's from two steps at
    # its bisected coarse levels (CI runs both under two BLAS threads as well)
    "oracle-rotor-32768": (["oracle", "--potential", '{"family": "rotor"}', "--boundary",
                            "periodic", "--levels", "15", "--grid-size", "32768"],
                           ("json", "csv")),
    "oracle-harmonic-32768": (["oracle", "--potential", HARMONIC, "--box=-9:9",
                               "--grid-size", "32768", "--levels", "20"], ("json", "csv")),
    # levels of a double well paired by well; named for the null cells it held while
    # the oracle computed one state per level (test_render.py covers null cells)
    "quantize-null-oracle": (["quantize", "--potential", TILTED, "--hbar", "0.2",
                              "--levels", "0..2", "--oracle", "on"], ("json",)),
    # a Morse request where shooting from the straight line finds neither path: of the
    # two, the limit takes the one that turns once (E = 6.9543137603), not twice
    "propagate-morse-branch": (["propagate", "--potential", '{"family": "morse", "depth": 10}',
                                "--from", "0.5", "--to", "-0.25", "--time", "2",
                                "--slices", "1024"], ("json", "csv")),
    # a pendulum request in the benchmark's shape, whose V and V' are numpy's sin and cos
    "propagate-pendulum": (["propagate", "--potential",
                            '{"family": "pendulum", "m": 1.2, "amplitude": 2.0}', "--hbar",
                            "0.9", "--from", "1.0", "--to", "-1.0", "--time", "0.7",
                            "--slices", "3000,6000"], ("json", "csv")),
}


@pytest.mark.parametrize("stem, fmt", [(stem, fmt) for stem, (_, fmts) in COMMANDS.items()
                                       for fmt in fmts])
@pytest.mark.fresh_interpreter
def test_command_output_matches_its_golden(stem, fmt, capsys):
    assert main([*COMMANDS[stem][0], "--format", fmt]) == 0
    out, _ = capsys.readouterr()
    assert out == (GOLDEN_DIR / "commands" / f"{stem}.{fmt}").read_text(encoding="utf-8")
