"""Every committed benchmark record parses and says what it measured, how, and where."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_parses_and_names_what_command_protocol_and_machine(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    missing = {"what", "command", "protocol", "machine"} - record.keys()
    assert not missing, f"{path.name} lacks {sorted(missing)}"
