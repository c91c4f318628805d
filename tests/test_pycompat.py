import os
import subprocess
import sys

PYCOMPAT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "pycompat.py")


def pycompat(python):
    return subprocess.run([sys.executable, PYCOMPAT, "--python", python],
                          capture_output=True, text=True)


def test_same_interpreter_gives_the_same_bytes():
    proc = pycompat(sys.executable)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[2:]] == ["same"] * 6
    assert "timing.csv" in lines[-1]


def test_interpreter_that_cannot_run(tmp_path):
    proc = pycompat(str(tmp_path / "no-python"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stdout == ""
