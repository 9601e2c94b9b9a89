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


def test_run_config_table_matches_the_field_tables():
    # the keys of each row, read through the CLI's key tables, are the fields that kind reads
    from singletsim.cli import _ENVELOPE_KEYS, _PREP_KEYS, _PROTOCOL_KEYS
    from singletsim.sequences import ENVELOPE_FIELDS, PREP_FIELDS, PROTOCOL_FIELDS

    section = README.read_text().split("### Run configs")[1]
    rows = re.findall(r"^\| `(protocol|prep)` \|(.*?)\|(.*?)\|(.*?)\|$", section, re.M)

    def fields(cell, table):
        # the keys of a cell are its backticked names outside parentheses
        return {table[key][0] for key in re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell))}

    kinds = {block: {} for block in ("protocol", "prep")}
    for block, kind, keys, times in rows:
        name = re.findall(r"`(\w+)`", kind)[0] if "`" in kind else kind.strip()
        kinds[block][name] = (fields(keys, _PREP_KEYS if block == "prep" else _PROTOCOL_KEYS),
                              fields(times, _ENVELOPE_KEYS))
    every, _ = kinds["protocol"].pop("every kind")
    assert {kind: every | keys for kind, (keys, _) in kinds["protocol"].items()} == {
        kind: set(row) for kind, row in PROTOCOL_FIELDS.items()}
    assert {kind: times for kind, (_, times) in kinds["protocol"].items()} == {
        kind: set(row) for kind, row in ENVELOPE_FIELDS.items()}
    assert {kind: keys for kind, (keys, _) in kinds["prep"].items()} == {
        kind: set(row) for kind, row in PREP_FIELDS.items()}
