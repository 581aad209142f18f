"""Workload corpora, item execution and exact output checks.

Every item is one in-process call into latlab: the public API for
``analyze`` and ``oracle``, ``latlab.cli.main`` for ``graph`` and
``cli-batch``.  An item's output is a text (the CLI's stdout, or a canonical
JSON rendering of the API result) plus an exit code.  Each output is checked
two ways: against the committed reference in ``reference.json`` (exit code,
SHA-256 of the text and its key integers) and against the library's own
cross-checks (closed forms, oracle against enumeration, spectrum
multiplicities against the vertex count).

The seed fixes the order of the items within a pass; the item set and
sizes are fixed, so every seed measures the same work and every item has a
committed reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import comb

from latlab import cli, families, lattice, perfection

WORKLOADS = ("analyze", "oracle", "graph", "cli-batch")
DEFAULT_SEED = 1
ORACLE_BOUND = 8
CLI_JOBS = 2

# Perfect lattices of rank 12-26 plus two imperfect ones (pd > 0).
ANALYZE_SPECS = (
    "Ld:26", "LA:Z/24", "Od:20", "Md:20", "Mneg:Z/30", "T:4",
    "Craig:q=13,k=2", "Ld:6", "LA:Z/4+Z/2",
)

# The criterion-8 oracle corpus (rank <= 12) without Ld:12, Od:12, Md:12
# and Md:9:excl=1, which would make a pass 50 s long; LA:Z/13 keeps a
# rank-12 item.  Craig:q=11,k=3 and Sidon have no vectors up to norm 8.
ORACLE_SPECS = (
    "LA:Z/13", "Od:9:excl=3", "Mneg:Z/16", "Ld:8:excl=2,6", "Mneg:F2^3",
    "SidonInv:q=11", "Craig:q=11,k=3", "T:3", "LA:Z/4+Z/2",
    "LAsub:Z/9:drop=0", "Craig:q=9,k=2", "Craig:q=7,k=2", "Sidon:Z/7:set=0,1,3",
)

GRAPH_ARGV = (
    ("graph", "T:3", "--base-vector", "1,1,1,0,0,0,0", "--product", "-1"),
    ("graph", "LA:Z/3+Z/3", "--norm", "4"),
    ("graph", "LA:Z/9", "--norm", "4"),
    ("graph", "Ld:8"),
    ("graph", "Mneg:Z/16"),
)

TABLE_IDS = ("L7-single", "L8-single", "L8-double", "O8", "O9", "M8", "M9",
             "D-scan-k1", "craig-k2", "craig-k3")
CLI_BATCH_ARGV = tuple(("table", t, "--jobs", str(CLI_JOBS)) for t in TABLE_IDS) + (
    ("scan-D", "--excl", "6", "--jobs", str(CLI_JOBS)),
    ("build", "Ld:60"),
    ("build", "LA:Z/128"),
    ("build", "T:7"),
    ("verify", "Craig:q=13,k=3"),
    ("verify", "Ld:20"),
    ("craig", "--q", "23", "--k", "3", "--method", "histogram"),
    ("minvec", "Ld:30", "--norm", "4"),
)

# The stored O9 pair count 59 is a known erratum: the recomputation gives 57
# and `latlab table O9` exits 1 with exactly this one diff.
EXPECTED_TABLE_DIFFS = {
    "O9": [{"row": "Od:9:excl=1", "field": "mp", "expected": "59", "got": "57"}],
}

# One cheap item per workload, for the self-check.
QUICK = {
    "analyze": ("Ld:6",),
    "oracle": ("T:3",),
    "graph": (GRAPH_ARGV[0],),
    "cli-batch": (CLI_BATCH_ARGV[0],),
}


@dataclass(frozen=True)
class Item:
    kind: str  # "analyze", "oracle" or "cli"
    arg: object  # a family spec string, or a CLI argv tuple

    @property
    def key(self) -> str:
        return self.arg if isinstance(self.arg, str) else " ".join(self.arg)


def _items(workload: str, quick: bool) -> list[Item]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    source = QUICK[workload] if quick else {
        "analyze": ANALYZE_SPECS,
        "oracle": ORACLE_SPECS,
        "graph": GRAPH_ARGV,
        "cli-batch": CLI_BATCH_ARGV,
    }[workload]
    kind = workload if workload in ("analyze", "oracle") else "cli"
    return [Item(kind, arg) for arg in source]


def corpus(workload: str, seed: int, quick: bool = False) -> list[Item]:
    """The workload's items in the order the seed fixes."""
    items = _items(workload, quick)
    random.Random(f"{workload}:{seed}").shuffle(items)
    return items


def jobs_of(workload: str) -> int:
    return CLI_JOBS if workload == "cli-batch" else 1


def execute(item: Item) -> tuple[int, str]:
    """Run one item; returns (exit code, output text).  This is the timed call."""
    if item.kind == "analyze":
        report = perfection.perfection_report(families.build_family(item.arg))
        return 0, json.dumps(report.to_json(family=item.arg), sort_keys=True)
    if item.kind == "oracle":
        lat = families.build_family(item.arg)
        oracle = lattice.enumerate_by_basis_oracle(lat, ORACLE_BOUND)
        code, norms = 0, {}
        for m in range(1, ORACLE_BOUND + 1):
            mvs = lattice.vectors_of_norm(lat, m)
            if oracle[m] != mvs:
                code = 1
            norms[str(m)] = [str(mvs.count), [list(v) for v in mvs.vectors]]
        return code, json.dumps(norms, sort_keys=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(item.arg))
    return code, out.getvalue()


def _graph_json(text: str) -> dict:
    # `latlab graph` prints the adjacency matrix ("n n" header, n rows) and
    # then one JSON object
    lines = text.splitlines()
    n = int(lines[0].split()[0])
    return json.loads("\n".join(lines[n + 1:]))


_CLI_KEYS = {
    "table": ("ok", "diffs"),
    "scan-D": ("D", "perfect_ds", "failures"),
    "build": ("rank", "det"),
    "verify": ("formula_value", "enumerated_value", "agree"),
    "craig": ("value",),
    "minvec": ("count",),
}


def key_values(item: Item, text: str) -> dict:
    """The exact integers (as decimal strings) an output stands for."""
    if item.kind == "analyze":
        return json.loads(text)
    if item.kind == "oracle":
        return {m: count for m, (count, _) in json.loads(text).items()}
    command = item.arg[0]
    if command == "graph":
        info = _graph_json(text)
        return {k: info[k] for k in ("vertices", "spectrum", "srg")}
    obj = json.loads(text)
    return {k: obj[k] for k in _CLI_KEYS[command]}


def cross_check(item: Item, code: int, keys: dict) -> str | None:
    """The library's own consistency checks; returns a reason on failure."""
    if item.kind == "analyze":
        spec = families.parse_family(item.arg, strict=False)
        d, rank, pd = int(keys["d"]), int(keys["sym_rank"]), int(keys["pd"])
        if pd != comb(d + 1, 2) - rank or pd < 0:
            return "perfection default does not match the symmetric rank"
        try:
            det = families.det_formula(spec)
        except ValueError:
            det = None  # no closed form for this family
        if det is not None and det != int(keys["det"]):
            return f"det {keys['det']} differs from the closed form {det}"
        return None
    if item.kind == "oracle":
        return "oracle and enumeration disagree" if code else None
    command = item.arg[0]
    if command == "graph":
        n = int(keys["vertices"])
        spectrum = keys["spectrum"]
        if spectrum is not None and sum(int(m) for m in spectrum.values()) != n:
            return "spectrum multiplicities do not sum to the vertex count"
        return None
    if command == "table":
        expected = EXPECTED_TABLE_DIFFS.get(item.arg[1], [])
        if keys["diffs"] != expected or code != (1 if expected else 0):
            return f"table diffs {keys['diffs']} (exit {code}), expected {expected}"
        return None
    if code != 0:
        return f"exit code {code}"
    if command == "verify" and keys["agree"] is not True:
        return "closed form and enumeration disagree"
    if command == "craig":
        q, k = int(item.arg[2]), int(item.arg[4])
        closed = (families.craig_count_k2_closed(q) if k == 2
                  else families.craig_count_k3_closed(q))
        if int(keys["value"]) != closed:
            return f"histogram count {keys['value']} differs from the closed form {closed}"
    if command == "build":
        det = families.det_formula(families.parse_family(item.arg[1], strict=False))
        if int(keys["det"]) != det:
            return f"det {keys['det']} differs from the closed form {det}"
    if command == "minvec":
        spec = families.parse_family(item.arg[1], strict=False)
        if int(keys["count"]) != families.minpair_formula(spec):
            return "shortest-vector count differs from the closed form"
    return None


def record(item: Item, code: int, text: str) -> dict:
    """The reference entry for one output."""
    return {"code": code, "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "keys": key_values(item, text)}


def check(item: Item, code: int, text: str, reference: dict) -> tuple[str, str | None]:
    """(output digest, failure reason or None) against reference and cross-checks."""
    got = record(item, code, text)
    want = reference.get(item.key)
    if want is not None and got != want:
        return got["sha256"], f"differs from the reference: {got['keys']} exit {code}"
    return got["sha256"], cross_check(item, code, got["keys"])
