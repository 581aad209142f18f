"""Reference tables and the machinery to recompute and diff them.

Every table ships inside the package as structured constants so the checks
run without any asset files.  Rows record (parameter, determinant,
perfection default, shortest-vector pair count) for the excluded-index
families, the D threshold row for single exclusions, and the closed-form
shortest-vector counts for the power-sum kernels of orders two and three.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import families, perfection
from .errors import SpecError
from .families import FamilySpec
from .perfection import _map

# (excl, det, pd, mp) per row.
_EXCLUSION_TABLES = {
    "L7-single": ("Ld", 7, (
        ((2,), 620, 1, 31),
        ((3,), 680, 1, 29),
        ((4,), 720, 0, 28),
        ((5,), 740, 4, 28),
    )),
    "L8-single": ("Ld", 8, (
        ((2,), 924, 0, 46),
        ((3,), 1001, 0, 44),
        ((4,), 1056, 0, 42),
        ((5,), 1089, 0, 42),
        ((6,), 1100, 3, 42),
    )),
    "L8-double": ("Ld", 8, (
        ((2, 3), 1041, 0, 43),
        ((2, 5), 1169, 0, 40),
        ((2, 6), 1200, 0, 39),
        ((2, 9), 1161, 0, 40),
        ((2, 10), 1104, 0, 41),
        ((3, 5), 1260, 0, 37),
    )),
    "O8": ("Od", 8, (
        ((1,), 1329, 4, 38),
        ((3,), 1321, 3, 37),
        ((5,), 1305, 1, 37),
        ((7,), 1281, 0, 38),
        ((9,), 1249, 2, 38),
        ((11,), 1209, 1, 39),
        ((13,), 1161, 0, 40),
        ((15,), 1105, 1, 41),
        ((17,), 1041, 0, 43),
    )),
    "O9": ("Od", 9, (
        ((1,), 1770, 2, 59),
        ((3,), 1762, 0, 56),
        ((5,), 1746, 0, 56),
        ((7,), 1722, 0, 56),
        ((9,), 1690, 0, 57),
        ((11,), 1650, 0, 58),
        ((13,), 1602, 0, 59),
        ((15,), 1546, 0, 60),
        ((17,), 1482, 0, 62),
        ((19,), 1410, 0, 64),
    )),
    "M8": ("Md", 8, (
        ((0,), 1140, 1, 41),
        ((1,), 1136, 1, 42),
        ((2,), 1124, 1, 42),
        ((3,), 1104, 0, 42),
        ((4,), 1076, 3, 44),
        ((5,), 1040, 2, 44),
        ((6,), 996, 0, 45),
        ((7,), 944, 0, 47),
        ((8,), 884, 1, 49),
    )),
    "M9": ("Md", 9, (
        ((0,), 1540, 0, 61),
        ((1,), 1536, 0, 61),
        ((2,), 1524, 0, 62),
        ((3,), 1504, 0, 61),
        ((4,), 1476, 0, 64),
        ((5,), 1440, 1, 64),
        ((6,), 1396, 0, 65),
        ((7,), 1344, 0, 66),
        ((8,), 1284, 0, 69),
        ((9,), 1216, 0, 70),
    )),
}

# D(a_1) for a_1 = 1..9 and for any a_1 >= 10; the row maximum is d_1 = 9.
_D_SCAN_K1 = ((1, 7), (2, 8), (3, 8), (4, 7), (5, 8), (6, 9), (7, 7), (8, 8), (9, 8), (10, 7))

# Shortest-vector pair counts of the power-sum kernels, from the closed
# forms (cross-computed against the subset histogram at table time).
_CRAIG_TABLES = {
    "craig-k2": (2, ((7, 7), (11, 55), (13, 156), (17, 544), (19, 969), (23, 2277))),
    "craig-k3": (3, ((7, 0), (11, 0), (13, 39), (17, 238), (19, 684), (23, 2024))),
}

TABLE_IDS = tuple(list(_EXCLUSION_TABLES) + ["D-scan-k1"] + list(_CRAIG_TABLES))


@dataclass(frozen=True)
class TableDiff:
    row: str
    field: str
    expected: str
    got: str


@dataclass(frozen=True)
class TableReport:
    table_id: str
    rows: tuple[tuple[str, ...], ...]
    header: tuple[str, ...]
    diffs: tuple[TableDiff, ...]

    @property
    def ok(self) -> bool:
        return not self.diffs


def _exclusion_row(args) -> tuple[str, int, int, int]:
    tag, d, excl = args
    spec = FamilySpec(tag, d=d, excl=excl)
    report = perfection.perfection_report(families.build_family(spec))
    return str(spec), report.det, report.pd, report.mp


def _scan_row(a1: int) -> tuple[str, int]:
    result = perfection.scan_D((a1,))
    if result.D is None:
        raise RuntimeError(f"D({a1}) left unresolved by a scan to the tail bound")
    return str(a1), result.D


def _craig_row(args) -> tuple[str, int, int]:
    q, k = args
    return str(q), families.craig_count_closed(q, k), families.craig_pair_count(q, k)


def run_table(table_id: str, jobs: int = 1) -> TableReport:
    """Recompute one reference table and diff it against the stored values."""
    if table_id in _EXCLUSION_TABLES:
        tag, d, golden = _EXCLUSION_TABLES[table_id]
        task, args = _exclusion_row, [(tag, d, excl) for excl, *_ in golden]
        header, expected = ("lattice", "det", "pd", "mp"), [g[1:] for g in golden]
    elif table_id == "D-scan-k1":
        task, args = _scan_row, [a1 for a1, _ in _D_SCAN_K1]
        header, expected = ("a_1", "D"), [g[1:] for g in _D_SCAN_K1]
    elif table_id in _CRAIG_TABLES:
        k, golden = _CRAIG_TABLES[table_id]
        task, args = _craig_row, [(q, k) for q, _ in golden]
        header, expected = ("q", "closed_form", "histogram"), [(v, v) for _, v in golden]
    else:
        raise SpecError(f"unknown table id {table_id!r}")
    computed = _map(task, args, jobs)
    rows, diffs = [], []
    for want, (label, *got) in zip(expected, computed):
        rows.append((label, *map(str, got)))
        for field, e, g in zip(header[1:], want, got):
            if e != g:
                diffs.append(TableDiff(label, field, str(e), str(g)))
    if table_id == "D-scan-k1":
        d1 = max(D for _, D in computed)
        rows.append(("d_1", str(d1)))
        if d1 != 9:
            diffs.append(TableDiff("d_1", "value", "9", str(d1)))
    return TableReport(table_id, tuple(rows), header, tuple(diffs))
