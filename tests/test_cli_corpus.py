"""Byte-identity of the CLI over a fixed corpus of invocations.

``cli_corpus.json`` maps each argv to the exit code and the SHA-256 of the
stdout that ``latlab.cli.main`` gave when the corpus was recorded.  A change
that is meant to leave every output alone must keep all of them.  The corpus
covers the README CLI examples in json and csv at ``--jobs 1`` and
``--jobs 3``, every reference table at ``--jobs 2``, the three ``craig``
methods, one build/analyze/minvec/verify per family tag, and the graph and
scan-D outputs whose spectrum, srg or D is null or unresolved, the
outputs whose containers are empty (``[]`` and ``{}``), the
``craig --method histogram`` pair counts over GF(25), GF(27) and GF(49)
(k = 3, 2 and 2), the only histograms over fields with e > 1, the
graphs whose characteristic polynomial has large or irrational-root
coefficients, a larger integral and a larger irrational spectrum (120 and
156 vertices), two analyses with large symmetric-square ranks, shortest
vectors at the enumerator's edges (support 1, entries of 3), and builds
over prime-power fields, multi-factor groups, the edges of the exclusion
windows and construction failures, and the kernel lattices of ranks 31-63
whose HNF bases have k = 0, 1 and 2 non-pivot columns (``build T:5``,
``build LA:Z/64`` and ``build Ld:40``).

``PYTHONPATH=src python3 tests/test_cli_corpus.py --record`` keeps every
existing entry verbatim, records the argvs that have no entry yet and drops
the entries whose argv is no longer listed.  A change that alters an output
on purpose deletes that entry, re-records, and says so in its changelog
entry.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

CORPUS = os.path.join(os.path.dirname(__file__), "cli_corpus.json")

_README = (
    ("build", "Ld:7"),
    ("analyze", "LA:Z/7"),
    ("minvec", "Ld:6", "--norm", "4"),
    ("verify", "Craig:q=11,k=2"),
    ("table", "L8-single"),
    ("scan-D", "--excl", "6", "--dmax", "15"),
    ("graph", "T:3", "--base-vector", "1,1,1,0,0,0,0", "--product", "-1"),
    ("craig", "--q", "13", "--k", "3", "--method", "histogram"),
)

_TABLES = ("L7-single", "L8-single", "L8-double", "O8", "O9", "M8", "M9", "D-scan-k1",
           "craig-k2", "craig-k3")

# (spec, minvec norm) per family tag
_FAMILIES = (
    ("Ld:8:excl=2,10", 4),
    ("Od:8:excl=3", 4),
    ("Md:8:excl=1", 4),
    ("LA:Z/3+Z/3", 4),
    ("LAsub:Z/9:drop=0", 4),
    ("Mneg:Z/16", 4),
    ("T:3", 3),
    ("Craig:q=7,k=2", 6),
    ("Sidon:Z/7:set=0,1,3", 4),
    ("SidonInv:q=11", 4),
)

# histogram counts over fields with e > 1
_PRIME_POWER_HISTOGRAMS = (
    ("craig", "--q", "25", "--k", "3", "--method", "histogram"),
    ("craig", "--q", "27", "--k", "2", "--method", "histogram"),
    ("craig", "--q", "49", "--k", "2", "--method", "histogram"),
)

# no spectrum and no srg; a spectrum but no srg; D unresolved, no perfect d;
# no spectrum, with degrees 9-23
_NULL_PATHS = (
    ("graph", "Ld:6"),
    ("graph", "LA:Z/3+Z/3", "--norm", "4"),
    ("scan-D", "--excl", "6", "--dmax", "8"),
    ("graph", "LA:Z/3+Z/3", "--norm", "4", "--product", "1"),
)

# characteristic polynomials with coefficients of more than 61 bits or
# irrational roots, and coefficient bounds of 76 and 133 bits, just past the
# primes 2^61 - 1 and 2^127 - 1; then a larger integral spectrum (an SRG on
# 120 vertices) and a larger irrational one (156 vertices)
_CHAR_POLY = (
    ("graph", "LA:Z/9", "--norm", "4"),
    ("graph", "Ld:8"),
    ("graph", "Mneg:Z/16"),
    ("graph", "Ld:7"),
    ("graph", "Craig:q=11,k=2", "--product", "2"),
    ("graph", "T:4"),
    ("graph", "Mneg:F2^3"),
    ("graph", "Craig:q=13,k=2"),
)

# Sym2 ranks over several thousand rows: the sparse modular eliminator's
# pivot order and early stop at the cap
_SYM_RANK = (
    ("analyze", "Ld:30"),
    ("analyze", "LA:Z/32"),
)

# minvec inputs that reach the enumerator's edges: support-1 vectors held by
# congruence rows alone, entries of absolute value 3 or more, and an equality
# row with entries of 3 (support-1 vectors under a mod-2 head row are the
# _FAMILIES entry "Mneg:Z/16" at norm 4)
_NORMS = (
    ("minvec", "T:3", "--norm", "4"),
    ("minvec", "T:3", "--norm", "12"),
    ("minvec", "Od:5", "--norm", "12"),
)


# builds: fields with e > 1, a rank-1 label, multi-factor groups, exclusions
# at the edges of each window, and the two exit-3 constructions
_BUILDS = (
    "Craig:q=9,k=2", "Craig:q=4,k=1", "SidonInv:q=9",
    "T:1",
    "Mneg:Z/2+Z/4", "LAsub:Z/3+Z/3:drop=00", "LA:F2^3", "Sidon:Z/3+Z/3:set=00,01,10",
    "Sidon:Z/12+Z/13:set=0,0,0,1,1,0",
    "Ld:7:excl=9", "Od:8:excl=17", "Md:8:excl=8", "Md:8:excl=0,9", "Ld:7:excl=1,10",
    "SidonInv:q=4", "Sidon:Z/8:set=0,1,2",
)

# HNF kernels of ranks 31-63 whose bases have 0, 1 and 2 non-pivot columns:
# the sparse HNF and the Gram determinant from the basis's pivot block
_KERNELS = ("T:5", "LA:Z/64", "Ld:40")

# the one analyze whose params carry a set, and three exit-2 inputs that no
# other entry reaches: a prime power with no built-in modulus, an unknown
# spec field and a base vector of the wrong length
_BRANCHES = (
    ("analyze", "Sidon:Z/13:set=0,1,3,9"),
    ("build", "Craig:q=32,k=2"),
    ("build", "Ld:7:foo"),
    ("graph", "Ld:5", "--base-vector", "1,1"),
)

# empty containers: no vectors at norm 1 (json and csv), a graph on 0
# vertices ({} degrees and spectrum) and a scan with no exclusion and no
# perfect d
_EMPTY = (
    ("minvec", "Ld:8", "--norm", "1"),
    ("--format", "csv", "minvec", "Ld:8", "--norm", "1"),
    ("graph", "Ld:8", "--norm", "1"),
    ("scan-D", "--dmax", "3"),
)


def corpus_argvs() -> list[list[str]]:
    out = []
    for fmt in ("json", "csv"):
        for jobs in ("1", "3"):
            out += [["--format", fmt, "--jobs", jobs, *cmd] for cmd in _README]
        # D-scan-k1 is the slowest table; its rows are checked once, in json
        out += [["--format", fmt, "--jobs", "2", "table", t] for t in _TABLES
                if fmt == "json" or t != "D-scan-k1"]
    out += [["craig", "--q", "7", "--k", k, "--method", m]
            for k, m in (("1", "histogram"), ("2", "formula"), ("2", "enumerate"))]
    out += [list(cmd) for cmd in _PRIME_POWER_HISTOGRAMS]
    for spec, norm in _FAMILIES:
        out += [["build", spec], ["analyze", spec],
                ["minvec", spec, "--norm", str(norm)], ["verify", spec]]
    out += [list(cmd) for cmd in _NULL_PATHS + _CHAR_POLY + _SYM_RANK + _NORMS]
    out += [["build", spec] for spec in _BUILDS + _KERNELS]
    out += [list(cmd) for cmd in _BRANCHES + _EMPTY]
    return out


def run(argv) -> tuple[int, str]:
    from latlab.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _load() -> list[dict]:
    if not os.path.exists(CORPUS):
        return []  # test_corpus_covers_the_argv_list fails
    with open(CORPUS) as fh:
        return json.load(fh)


def test_corpus_covers_the_argv_list():
    assert [entry["argv"] for entry in _load()] == corpus_argvs()


@pytest.mark.parametrize("entry", _load(), ids=lambda e: " ".join(e["argv"]))
def test_cli_output_unchanged(entry):
    assert run(entry["argv"]) == (entry["exit"], entry["stdout_sha256"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_corpus.py --record")
    recorded = {tuple(e["argv"]): e for e in _load()}
    entries = []
    for argv in corpus_argvs():
        if tuple(argv) not in recorded:
            code, digest = run(argv)
            recorded[tuple(argv)] = {"argv": argv, "exit": code, "stdout_sha256": digest}
        entries.append(recorded[tuple(argv)])
    with open(CORPUS, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
