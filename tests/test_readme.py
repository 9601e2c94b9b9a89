"""The README's Python API sketch runs as documented against the installed names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    frequency = float(capsys.readouterr().out)
    assert abs(frequency - 2.57) < 0.01  # the sketch's comment: ~2.57 Hz for the default preset
