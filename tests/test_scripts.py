"""The example scripts under ``scripts/`` run end to end."""

import re
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name: str) -> dict:
    return runpy.run_path(str(SCRIPTS / name))


def test_pangloss_sweep_closes_the_joint_rate(capsys):
    _script("pangloss_sweep.py")["main"](["--d", "0.8", "0.5", "0.1", "--grid", "3"])
    out = capsys.readouterr().out
    header, *rows, check = out.splitlines()
    assert header.startswith("alpha1,alpha2,T,R0,R1,R2,q_1,q_2,q_3")
    assert len(rows) == 6
    gap = float(re.fullmatch(r"# T\(1,1\) - joint rate = (\S+) \(consistency check\)", check)[1])
    assert abs(gap) < 1e-12


def test_random_instance_demo_runs(capsys):
    _script("random_instance_demo.py")["main"](["--seed", "3", "-N", "2000"])
    out = capsys.readouterr().out
    assert "monte carlo on 2000 draws" in out
    assert "joint rate at" in out


def test_reproduce_worked_examples_prints_the_doubled_bits_value(capsys):
    runpy.run_path(str(SCRIPTS / "reproduce_worked_examples.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "5.0444 doubled-bits convention" in out
    assert "Example B" in out
