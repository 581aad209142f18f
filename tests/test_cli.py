import contextlib
import io
import json
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latlab import tables
from latlab.cli import _build_parser, _decimal, main
from latlab.errors import ConstructionError, SpecError
from latlab.groups import FinAbelianGroup


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_ld7(capsys):
    code, out, _ = run_cli(capsys, "build", "Ld:7")
    assert code == 0
    payload = json.loads(out)
    assert payload["det"] == "540"
    assert payload["rank"] == "7"
    assert payload["labels"][0] == "1"


def test_build_t3(capsys):
    code, out, _ = run_cli(capsys, "build", "T:3")
    assert code == 0
    assert json.loads(out)["det"] == "64"


def test_build_out_of_range_exclusion_exits_2(capsys):
    code, _, err = run_cli(capsys, "build", "Ld:7:excl=99")
    assert code == 2
    assert "out of index range" in err


def test_build_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "build", "Nope:3")
    assert code == 2


def test_construction_error_exits_3(capsys):
    code, _, err = run_cli(capsys, "build", "Craig:q=4,k=2")
    assert code == 3
    assert "characteristic" in err


@pytest.mark.parametrize("argv, cap", [
    (("analyze", "Sidon:Z/7:set=0,1,3"), 12),
    (("--norm-cap", "5", "graph", "Craig:q=7,k=2"), 5),
])
def test_minimum_beyond_the_cap_exits_3(capsys, argv, cap):
    assert run_cli(capsys, *argv) == (3, "", f"error: minimum exceeds cap {cap}\n")


def test_craig_histogram_construction_error_exits_3(capsys):
    code, out, err = run_cli(capsys, "craig", "--q", "4", "--k", "2", "--method", "histogram")
    assert code == 3
    assert out == ""
    assert "characteristic" in err and "Traceback" not in err


def test_analyze_la_z7(capsys):
    code, out, _ = run_cli(capsys, "analyze", "LA:Z/7")
    assert code == 0
    payload = json.loads(out)
    assert (payload["d"], payload["mp"], payload["pd"]) == ("6", "21", "0")


def test_analyze_mneg_z16(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Mneg:Z/16")
    assert code == 0
    payload = json.loads(out)
    assert (payload["d"], payload["det"], payload["pd"]) == ("9", "1024", "0")


def test_analyze_od10_excl1(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Od:10:excl=1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["det"], payload["mp"], payload["pd"]) == ("2299", "81", "0")


def test_minvec(capsys):
    code, out, _ = run_cli(capsys, "minvec", "Ld:6", "--norm", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "22"
    assert len(payload["vectors"]) == 22


def test_verify_agreement(capsys):
    for spec in ("Craig:q=11,k=2", "Ld:12", "LAsub:Z/9:drop=0"):
        code, out, _ = run_cli(capsys, "verify", spec)
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True


def test_verify_no_formula_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "Mneg:Z/16")
    assert code == 2


def test_table_small(capsys):
    code, out, _ = run_cli(capsys, "table", "L7-single")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["rows"]) == 4


def test_table_unknown_id(capsys):
    code, _, err = run_cli(capsys, "table", "bogus")
    assert code == 2


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "table", "L7-single")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lattice,det,pd,mp"
    assert lines[1].startswith("Ld:7:excl=2,620,1,31")


def test_scan_d(capsys):
    code, out, _ = run_cli(capsys, "scan-D", "--excl", "6", "--dmax", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["D"] == "9"


def test_scan_d_unresolved(capsys):
    code, out, _ = run_cli(capsys, "scan-D", "--excl", "2", "--dmax", "9")
    assert code == 0
    assert json.loads(out)["D"] == "unresolved"


def test_graph_schlafli(capsys):
    code, out, _ = run_cli(capsys, "graph", "T:3", "--base-vector",
                           "1,1,1,0,0,0,0", "--product", "-1")
    assert code == 0
    header, rest = out.split("\n", 1)
    assert header == "27 27"
    payload = json.loads(rest.split("\n", 27)[-1])
    assert payload["srg"] == ["27", "10", "1", "5"]
    assert payload["spectrum"] == {"10": "1", "1": "20", "-5": "6"}
    assert payload["degrees"] == {"10": "27"}


def test_graph_orthogonality_profile(capsys):
    # the cyclic order-9 profile graph has an irrational spectrum; the
    # command must still report the distinguishing degree histogram
    code, out, _ = run_cli(capsys, "graph", "LA:Z/9", "--norm", "4")
    assert code == 0
    payload = json.loads(out.split("\n", 55)[-1])
    assert payload["degrees"] == {"9": "27", "15": "27"}
    assert payload["spectrum"] is None
    code, out, _ = run_cli(capsys, "graph", "LA:Z/3+Z/3", "--norm", "4")
    assert code == 0
    payload = json.loads(out.split("\n", 55)[-1])
    assert payload["degrees"] == {"9": "54"}


def test_craig_methods_agree(capsys):
    values = {}
    for method in ("formula", "histogram", "enumerate"):
        code, out, _ = run_cli(capsys, "craig", "--q", "7", "--k", "2",
                               "--method", method)
        assert code == 0
        values[method] = json.loads(out)["value"]
    assert values == {"formula": "7", "histogram": "7", "enumerate": "7"}


def test_jobs_do_not_change_output(capsys, monkeypatch):
    code1, out1, _ = run_cli(capsys, "--jobs", "1", "table", "craig-k2")
    code2, out2, _ = run_cli(capsys, "--jobs", "2", "table", "craig-k2")
    assert (code1, out1) == (code2, out2)
    monkeypatch.setenv("LATLAB_JOBS", "2")
    code3, out3, _ = run_cli(capsys, "table", "craig-k2")
    assert (code1, out1) == (code3, out3)


def test_jobs_beyond_any_pool_size(capsys):
    # --jobs N runs the rows on the caller and at most N - 1 forked
    # children, never more processes than rows, so a --jobs far beyond any
    # process count still runs the 9 rows of O8, on 9 processes
    code1, out1, _ = run_cli(capsys, "--jobs", "1", "table", "O8")
    code2, out2, err = run_cli(capsys, "table", "O8", "--jobs", "1000000000000000000000")
    assert (code2, out2, err) == (0, out1, "") and code1 == 0


@pytest.mark.parametrize("error, code", [(ConstructionError, 3), (SpecError, 2)])
def test_a_pooled_row_keeps_the_exit_code_contract(capsys, monkeypatch, error, code):
    # a row task's bad-input exception crosses the forked workers' pipes
    # with its type, so the exit code and the one error: line do not depend
    # on --jobs
    def refuse(args):
        raise error(f"row {args[2]} refused")

    monkeypatch.setattr(tables, "_exclusion_row", refuse)
    serial = run_cli(capsys, "table", "L7-single", "--jobs", "1")
    assert serial == (code, "", "error: row (2,) refused\n")
    assert run_cli(capsys, "table", "L7-single", "--jobs", "2") == serial


def test_repeat_runs_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "LA:Z/8")
    _, out2, _ = run_cli(capsys, "analyze", "LA:Z/8")
    assert out1 == out2


def test_bad_jobs_value(capsys):
    code, _, err = run_cli(capsys, "--jobs", "0", "build", "Ld:7")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("scan-D", "--excl", "a"),
    ("graph", "Ld:5", "--base-vector", "1,a"),
    ("graph", "Ld:5", "--base-vector", ""),
    ("graph", "Ld:5", "--base-vector", "0,0,0,0,0,0,0"),  # orthogonal to every vector
    ("minvec", "Ld:5", "--norm", "0"),
    ("--norm-cap", "0", "analyze", "Ld:5"),
    ("craig", "--q", "6", "--k", "2"),
    ("craig", "--q", "9", "--k", "3"),  # formula outside the theorem
    ("craig", "--q", "7", "--k", "0"),
    ("craig", "--q", "7", "--k", "-1", "--method", "histogram"),
    ("LATLAB_JOBS=abc", "build", "Ld:5"),
    ("LATLAB_JOBS=0", "build", "Ld:5"),
    ("LATLAB_JOBS=-3", "build", "Ld:5"),
    ("build", "Sidon:Z/7:set=0,0,1"),
    ("build", "Sidon:Z/7:set=0,7"),  # 7 reduces to 0
    ("build", "Craig:q=7,k=2,z=1"),
    ("build", "SidonInv:q=11,k=2"),
    ("build", "Craig:q=7,k=2,q=11"),
    ("craig", "--q", "7", "--k", "4"),  # no closed form for k = 4
    ("scan-D", "--dmax", "0"),
    ("scan-D", "--dmax", "-3"),
    ("scan-D", "--dmax", "8"),  # above the tail bound 7 of no exclusions
    ("scan-D", "--excl", "6", "--dmax", "20"),  # above the tail bound 15
    # argparse's own usage errors
    ("--jobs", "abc", "build", "Ld:5"),
    (),
    ("nope",),
    ("minvec", "Ld:5"),
    ("--format", "xml", "build", "Ld:5"),
])
def test_malformed_values_exit_2(capsys, monkeypatch, argv):
    name, _, value = (argv[0] if argv else "").partition("=")
    if value:
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    if value:
        assert name in err


def test_repeated_sidon_element_message(capsys):
    code, _, err = run_cli(capsys, "build", "Sidon:Z/7:set=0,0,1")
    assert (code, err) == (2, "error: Sidon set elements must be distinct\n")


@pytest.mark.parametrize("spec", [
    "LA:Z/1", "LA:", "Mneg:Z/0", "LAsub:Z/7:drop=", "LAsub:Z/7", "Sidon:Z/7:set=",
    "Sidon:Z/7", "Sidon:Z/7:set=0,1,2", "Od:3:excl=2", "Md:4:excl=-1", "Ld:4:excl=3,2",
    "Ld:0", "T:x", "Craig:q=7,k=7", "Craig:q=", "Craig:q=6,k=2", "Craig:k=2",
    "SidonInv:q=4", "LA:Z/7:x", "T:3:x", "Mneg:Z/8:foo", "Craig:q=7,k=2:bogus",
    "SidonInv:q=11:x",
])
def test_malformed_specs_fail_cleanly(capsys, spec):
    code, out, err = run_cli(capsys, "build", spec)
    assert code in (2, 3)
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_decimal_renders_non_bool_ints_only():
    obj = {"ok": True, "agree": False, "D": None, "det": -540, "family": "Ld:7",
           "rows": ((1, (2, -3)), []), 10: 27}
    assert json.dumps(_decimal(obj)) == (
        '{"ok": true, "agree": false, "D": null, "det": "-540", "family": "Ld:7", '
        '"rows": [["1", ["2", "-3"]], []], "10": "27"}')


def test_run_option_placement(capsys, monkeypatch):
    code, front, _ = run_cli(capsys, "--format", "csv", "table", "L7-single")
    assert code == 0
    assert run_cli(capsys, "table", "L7-single", "--format", "csv")[:2] == (code, front)
    # given on both sides of the subcommand, the later value wins
    plain = run_cli(capsys, "build", "Ld:7")
    assert run_cli(capsys, "--format", "csv", "build", "Ld:7", "--format", "json") == plain
    assert run_cli(capsys, "--jobs", "0", "build", "Ld:7", "--jobs", "1") == plain
    code, _, err = run_cli(capsys, "table", "L7-single", "--jobs", "0")
    assert code == 2 and err.startswith("error:")
    # an explicit --jobs wins without LATLAB_JOBS being read
    monkeypatch.setenv("LATLAB_JOBS", "abc")
    assert run_cli(capsys, "build", "Ld:7", "--jobs", "1") == plain


def test_scan_d_jobs_identical(capsys):
    code1, out1, _ = run_cli(capsys, "--jobs", "1", "scan-D", "--excl", "4", "--dmax", "15")
    code2, out2, _ = run_cli(capsys, "--jobs", "3", "scan-D", "--excl", "4", "--dmax", "15")
    assert (code1, out1) == (code2, out2)
    assert json.loads(out1)["D"] == "7"


def test_csv_outputs(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "analyze", "LA:Z/7")
    assert code == 0
    assert out.splitlines()[0] == "family,d,det,min,mp,sym_rank,pd"
    assert out.splitlines()[1] == "LA:Z/7,6,343,4,21,21,0"

    code, out, _ = run_cli(capsys, "--format", "csv", "verify", "Craig:q=7,k=2")
    assert code == 0
    assert out.splitlines()[1].endswith("7,7,true")

    code, out, _ = run_cli(capsys, "--format", "csv", "craig",
                           "--q", "11", "--k", "2", "--method", "histogram")
    assert code == 0
    assert out.splitlines()[1] == "11,2,histogram,55"

    code, out, _ = run_cli(capsys, "--format", "csv", "minvec", "Ld:6", "--norm", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "norm,count" and lines[1] == "4,22"
    assert len(lines) == 2 + 1 + 22  # scalar block, vector header, 22 rows

    code, out, _ = run_cli(capsys, "--format", "csv", "scan-D",
                           "--excl", "6", "--dmax", "15")
    assert code == 0
    assert out.splitlines()[1].startswith("6,15,9,")

    code, out, _ = run_cli(capsys, "--format", "csv", "build", "Ld:7")
    assert code == 0
    assert "det,540" in out


# characters a mutation may insert: no digit, so it never enlarges a number,
# and no 'h', so no abbreviation of --help can form
_JUNK = "LAOdMTxZF/+^:=,-_ ."


@st.composite
def _mutated(draw, text):
    """text with one or two characters deleted or junk characters inserted."""
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(text)))
        if i < len(text) and draw(st.booleans()):
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + draw(st.sampled_from(_JUNK)) + text[i:]
    return text


@st.composite
def _group(draw, max_order):
    factors = [draw(st.integers(2, max_order))]
    while max_order // prod(factors) >= 2 and draw(st.booleans()):
        factors.append(draw(st.integers(2, max_order // prod(factors))))
    return FinAbelianGroup(tuple(factors))


@st.composite
def _spec(draw, d_max=10, order_max=16, q_max=13, c_max=4):
    tag = draw(st.sampled_from(("Ld", "Od", "Md", "LA", "LAsub", "Mneg", "Sidon", "T",
                                "Craig", "SidonInv")))
    if tag in ("Ld", "Od", "Md"):
        d = draw(st.integers(1, d_max))
        text = f"{tag}:{d}"
        if draw(st.booleans()):
            excl = draw(st.lists(st.integers(0, d + 6), min_size=1, max_size=2))
            text += ":excl=" + ",".join(map(str, excl))
    elif tag == "T":
        text = f"T:{draw(st.integers(1, c_max))}"
    elif tag in ("Craig", "SidonInv"):
        pairs = [f"q={draw(st.integers(2, q_max))}"]
        if tag == "Craig":
            pairs.append(f"k={draw(st.integers(1, 3))}")
        text = f"{tag}:" + ",".join(draw(st.permutations(pairs)))
    else:
        group = draw(_group(order_max))
        element = st.tuples(*(st.integers(0, m - 1) for m in group.factors)).map(group.label)
        text = f"{tag}:{group}"
        if tag == "LAsub":
            text += ":drop=" + draw(element)
        elif tag == "Sidon":
            text += ":set=" + ",".join(draw(st.lists(element, min_size=1, max_size=4)))
    return text


@st.composite
def _argv(draw):
    """A well-formed argv, sizes bounded, that may then lose a token, gain
    a stray one or have one token mutated."""
    command = draw(st.sampled_from(("build", "analyze", "minvec", "verify", "table", "scan-D",
                                    "graph", "craig")))
    if command == "table":
        args = [draw(st.sampled_from(tables.TABLE_IDS))]
    elif command == "scan-D":
        excl = draw(st.lists(st.integers(0, 12), max_size=2))
        args = ["--excl", ",".join(map(str, excl)), "--dmax", str(draw(st.integers(1, 10)))]
    elif command == "craig":
        args = ["--q", str(draw(st.integers(2, 13))), "--k", str(draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            args += ["--method", draw(st.sampled_from(("formula", "histogram", "enumerate")))]
    elif command == "graph":
        # the graph's vertex count, and with it the cost of its spectrum,
        # grows fast with the lattice, so graphs stay smaller
        args = [draw(_spec(d_max=8, order_max=9, q_max=7, c_max=3))]
        if draw(st.booleans()):
            args += ["--norm", str(draw(st.integers(1, 4)))]
        if draw(st.booleans()):
            args += ["--product", str(draw(st.integers(-2, 2)))]
        if draw(st.booleans()):
            base = draw(st.lists(st.integers(-1, 1), max_size=10))
            args += ["--base-vector", ",".join(map(str, base))]
    else:
        args = [draw(_spec())]
        if command == "minvec":
            args += ["--norm", str(draw(st.integers(1, 6)))]
    options = []
    for flag, values in (("--format", st.sampled_from(("json", "csv"))),
                         ("--jobs", st.integers(1, 2).map(str)),
                         ("--norm-cap", st.integers(1, 12).map(str))):
        if draw(st.booleans()):
            options.append([flag, draw(values)])
    split = draw(st.integers(0, len(options)))
    argv = [x for pair in options[:split] for x in pair] + [command, *args]
    argv += [x for pair in options[split:] for x in pair]
    edit = draw(st.sampled_from(("keep", "keep", "mutate", "drop", "insert")))
    if edit == "mutate":
        i = draw(st.integers(0, len(argv) - 1))
        argv[i] = draw(_mutated(argv[i]))
    elif edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "insert":
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(("--norm", "--product", "--", "-", "")) | _mutated("")))
    return argv


@settings(max_examples=100, deadline=None)
@given(_argv())
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert _build_parser().parse_args(argv).command in ("verify", "table")
    if code in (2, 3):
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
