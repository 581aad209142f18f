import json

import pytest

from latlab import SpecError, tables
from latlab.cli import main


def test_table_ids_complete():
    assert set(tables.TABLE_IDS) == {
        "L7-single", "L8-single", "L8-double", "O8", "O9", "M8", "M9",
        "D-scan-k1", "craig-k2", "craig-k3",
    }


def test_unknown_table_id_is_a_spec_error():
    with pytest.raises(SpecError, match="unknown table id 'bogus'"):
        tables.run_table("bogus")


def test_clean_tables_reproduce():
    for tid in ("L7-single", "L8-single", "L8-double", "O8", "M8", "M9"):
        report = tables.run_table(tid)
        assert report.ok, (tid, report.diffs)


def test_o9_table_flags_the_known_discrepant_cell():
    # the stored value 59 equals the det's largest prime factor; the true
    # count is 57, confirmed by hand combinatorics, the support/sign
    # enumeration and the rational Fincke-Pohst oracle.  The diff machinery
    # must surface exactly this one cell.
    report = tables.run_table("O9")
    assert not report.ok
    assert len(report.diffs) == 1
    diff = report.diffs[0]
    assert (diff.row, diff.field, diff.expected, diff.got) == \
        ("Od:9:excl=1", "mp", "59", "57")


def test_o9_row_values_besides_the_flagged_cell():
    report = tables.run_table("O9")
    first = report.rows[0]
    assert first == ("Od:9:excl=1", "1770", "2", "57")
    assert [r[3] for r in report.rows[1:]] == \
        ["56", "56", "56", "57", "58", "59", "60", "62", "64"]


def test_cmd_table_exit_codes(capsys):
    assert main(["table", "O8"]) == 0
    capsys.readouterr()
    code = main(["table", "O9"])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["diffs"] == [
        {"row": "Od:9:excl=1", "field": "mp", "expected": "59", "got": "57"}
    ]


def test_parallel_rows_match_serial():
    serial = tables.run_table("L8-double", jobs=1)
    parallel = tables.run_table("L8-double", jobs=3)
    assert serial == parallel
