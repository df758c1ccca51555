import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from pgforge.cli import main
from pgforge.core import parse_presentation, serialize_presentation
from pgforge.corpus import load_manifest
from pgforge.errors import ForgeError, PresentationError
from pgforge import corpus


@pytest.fixture(scope="module")
def d8_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pc") / "d8.pc"
    path.write_text(serialize_presentation(corpus.dihedral(8).presentation))
    return str(path)


@pytest.fixture(scope="module")
def big_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pc") / "m432.pc"
    path.write_text(serialize_presentation(corpus.metacyclic(4, 3, 2).presentation))
    return str(path)


def test_inspect(d8_file, capsys):
    assert main(["inspect", d8_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 8
    assert doc["class"] == 2
    assert doc["coclass"] == 1
    assert doc["consistent"] is True


def test_inspect_reports_inconsistency(tmp_path, capsys):
    bad = tmp_path / "bad.pc"
    bad.write_text(
        "group bad\nprime 2\ngens 3\norder 1 2\norder 2 2\norder 3 2\n"
        "pow 2 = x3\nconj 2 1 = x3\n"
    )
    assert main(["inspect", str(bad)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["consistent"] is False
    assert doc["violations"]


def test_verify_single_group(capsys):
    assert main(["verify", "cor-2.4", "--group", "dihedral-8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["status"] == "pass"


def test_verify_unknown_group_exits_2(capsys):
    assert main(["verify", "cor-2.4", "--group", "nope"]) == 2


def test_verify_usage_error_exits_2(capsys):
    assert main(["verify", "not-a-check"]) == 2


def write_v4(path):
    """C2 x C2 under a name outside the built-in corpus."""
    text = serialize_presentation(corpus.abelian(2, [1, 1]).presentation)
    path.write_text(text.replace("group abelian-2-1_1\n", "group v4\n", 1))


# sha256 of the verify-all report below, with every `timing_ms` set to 0
# and `kernel_backend` set to "any": any change to a verdict, witness,
# counterexample or reason over the whole corpus moves it
REPORT_SHA256 = "c8084e5db9df597965663e3e849bb41be12a85fb3781b12ddc50f37cec562810"


def test_verify_all_with_manifest_and_json(tmp_path, capsys):
    write_v4(tmp_path / "v4.pc")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("file v4.pc\nexpect order 4\nexpect class 1\n")
    out = tmp_path / "report.json"
    code = main([
        "verify-all", "--manifest", str(manifest), "--json", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["fail"] == 0
    ids = {r["group_id"] for r in doc["results"]}
    assert "v4" in ids  # the manifest entry joined the corpus
    for r in doc["results"]:
        r["timing_ms"] = 0
    doc["kernel_backend"] = "any"
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


@pytest.mark.parametrize("expect,message", [
    ("order abc", "fact order: expected an integer, got 'abc'"),
    ("class 2 3", "fact class: expected an integer, got '2 3'"),
    ("center_invariants 2,x",
     "fact center_invariants: expected a comma list of integers, got '2,x'"),
    ("powerful maybe", "fact powerful: expected a boolean, got 'maybe'"),
])
def test_bad_manifest_values_exit_2_naming_the_line(tmp_path, capsys, expect, message):
    gfile = tmp_path / "v4.pc"
    gfile.write_text(serialize_presentation(corpus.abelian(2, [1, 1]).presentation))
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"file v4.pc\nexpect order 4\nexpect {expect}\n")
    assert main(["verify", "lemma-2.8", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().err == f"error: line 3: {message}\n"


@pytest.mark.parametrize("line, message", [
    ("file nothere.pc", "cannot read 'nothere.pc': No such file or directory"),
    ("file groups", "cannot read 'groups': Is a directory"),
    ("file", "file needs a path"),
    ("file   # no path, only a comment", "file needs a path"),
    ("file d8.pc", "group id 'dihedral-8' is already in the corpus"),
    ("file ./v4.pc", "group id 'v4' repeats line 1"),
    ("file bad.pc", "cannot read 'bad.pc': byte 0xff at offset 7 is not UTF-8"),
    ("file a\x00b.pc", "cannot read 'a\\x00b.pc': embedded null byte"),
])
def test_bad_manifest_file_lines_exit_2_naming_the_line(tmp_path, capsys, line, message):
    (tmp_path / "groups").mkdir()
    (tmp_path / "bad.pc").write_bytes(b"group g\xff\nprime 2\ngens 1\norder 1 2\n")
    (tmp_path / "d8.pc").write_text(serialize_presentation(corpus.dihedral(8).presentation))
    write_v4(tmp_path / "v4.pc")
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"file v4.pc  # one more group\n{line}\nexpect order 4\n")
    assert main(["verify", "lemma-2.8", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().err == f"error: line 2: {message}\n"


def test_inspect_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pc"
    bad.write_bytes(b"group g\xff\nprime 2\ngens 1\norder 1 2\n")
    assert main(["inspect", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {str(bad)!r}: byte 0xff at offset 7 is not UTF-8\n")


def test_non_utf8_manifest_exits_2(tmp_path, capsys):
    write_v4(tmp_path / "v4.pc")
    manifest = tmp_path / "m.txt"
    manifest.write_bytes(b"file v4.pc\nexpect order 4\xff\n")
    assert main(["verify", "lemma-2.8", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {str(manifest)!r}: byte 0xff at offset 25 is not UTF-8\n")


def test_cohomology_command(d8_file, capsys):
    assert main(["cohomology", d8_file, "--normal", "x2^2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h0"] == [2]
    assert doc["z1_size"] == 4
    assert doc["b1_size"] == 1


def test_cohomology_command_spans_the_quotient_once(d8_file, capsys, monkeypatch):
    """The module stores Q's generator representatives; the action
    matrices, the Z1 walk and the fixed points all read them."""
    from pgforge.subgroups import QuotientGroup

    calls = []
    spans = QuotientGroup.generator_reps
    monkeypatch.setattr(QuotientGroup, "generator_reps",
                        lambda Q: calls.append(Q) or spans(Q))
    assert main(["cohomology", d8_file, "--normal", "x2^2"]) == 0
    assert len(calls) == 1


def test_cohomology_rejects_non_normal(d8_file, capsys):
    assert main(["cohomology", d8_file, "--normal", "x1"]) == 2


@pytest.mark.parametrize("word", ["x0", "x99", "x3"])
def test_cohomology_refuses_a_generator_outside_the_presentation(d8_file, capsys, word):
    """d8 has generators x1 and x2: any other index, x0 included, is
    refused naming the --normal argument, with exit code 2."""
    assert main(["cohomology", d8_file, "--normal", f"x2,{word}"]) == 2
    assert capsys.readouterr().err == f"error: --normal {word!r}: no generator {word}\n"


def test_search_autos_names_the_fixed_set_within_the_given_cap(tmp_path, capsys):
    """The fixed set of a witness is named under the caps of the search:
    C_8192 is above the default sweep cap 4096, and --cap 8192 lifts it
    for the naming too."""
    path = tmp_path / "c8192.pc"
    path.write_text("group c8192\nprime 2\ngens 1\norder 1 8192\n")
    assert main(["search-autos", str(path), "--fix", "frattini", "--cap", "8192"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == doc["noninner_count"] == 1
    assert doc["witnesses"][0]["fixed_set"] == "frattini"
    assert doc["witnesses"][0]["images"] == [[4097]]


def test_search_autos_command(d8_file, capsys):
    assert main(["search-autos", d8_file, "--fix", "frattini", "--order", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 5
    assert doc["noninner_count"] == 2


def test_search_autos_refuses_above_cap(big_file, capsys):
    assert main(["search-autos", big_file, "--fix", "frattini"]) == 2
    assert "refused" in capsys.readouterr().err


def test_cap_override_allows_smaller_scope(d8_file, capsys):
    assert main(["--cap", "4", "search-autos", d8_file, "--fix", "frattini"]) == 2
    # the flag also parses after the subcommand
    assert main(["search-autos", d8_file, "--fix", "frattini", "--cap", "4"]) == 2


def test_inspect_huge_generator_count_exits_2(tmp_path, capsys):
    big = tmp_path / "big.pc"
    big.write_text("group big\nprime 2\ngens 1000000000000\norder 1 2\n")
    assert main(["inspect", str(big)]) == 2
    assert capsys.readouterr().err == (
        "error: line 3: generator count 1000000000000 is above the cap 256\n")


def test_inspect_bad_integer_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pc"
    bad.write_text("group bad\nprime 2\ngens 1\norder a 2\n")
    assert main(["inspect", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 4: bad generator index")
    assert "Traceback" not in err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "absent.pc")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["--cap", "-1", "search-autos", "D8", "--fix", "frattini"],
    ["--cap", "0", "search-autos", "D8", "--fix", "frattini"],
    ["search-autos", "D8", "--fix", "frattini", "--cap", "-1"],
    ["search-autos", "D8", "--fix", "frattini", "--cap", "0"],
    ["verify", "cor-2.4", "--group", "dihedral-8", "--cap", "-1"],
    ["--cap", "-1", "inspect", "D8"],
    ["search-autos", "D8", "--fix", "frattini", "--order", "-2"],
    ["search-autos", "D8", "--fix", "frattini", "--order", "0"],
    ["search-autos", "D8", "--fix", "frattini", "--order", "two"],
])
def test_caps_and_orders_must_be_positive_integers(d8_file, capsys, argv):
    argv = [d8_file if a == "D8" else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    assert "must be at least 1" in err or "invalid integer" in err


def test_search_autos_order_one_is_the_identity(d8_file, capsys):
    assert main(["search-autos", d8_file, "--fix", "frattini", "--order", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1 and doc["noninner_count"] == 0
    assert doc["witnesses"][0]["images"] == [[1, 0], [0, 1]]


# -- robustness on mutated presentation files ----------------------------------

# the corpus texts, up to order 256 so that a mutation that enlarges a group
# keeps `inspect` within the sweep cap
CORPUS_TEXTS = [
    serialize_presentation(e.presentation)
    for e in corpus.builtin_corpus(validate=False)
    if e.presentation.order <= 256
]
# small integers only: `gens` is read before any cap applies
REPLACEMENTS = st.one_of(
    st.integers(-3, 12).map(str),
    st.text(alphabet="x^*=#-.a", max_size=4),
)


@st.composite
def mutated_texts(draw):
    """A corpus text with one line dropped, two lines swapped, or one
    token replaced by a small integer or a junk string."""
    lines = draw(st.sampled_from(CORPUS_TEXTS)).splitlines()
    kind = draw(st.sampled_from(["drop", "swap", "token"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(REPLACEMENTS)
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "g.pc"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=mutated_texts())
def test_mutated_presentations_end_in_an_exit_code(scratch_file, text):
    """Only PresentationError escapes the parser, and `forge inspect`
    answers 0, 1 or 2 without a traceback; a parse error is exit 2."""
    try:
        parse_presentation(text)
        parsed = True
    except PresentationError:
        parsed = False
    scratch_file.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["inspect", str(scratch_file)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if not parsed:
        assert code == 2 and err.getvalue().startswith("error: ")


# -- robustness on mutated manifests --------------------------------------------

# groups up to order 16 under names outside the built-in corpus, each with
# its presentation text and the manifest block that expects its facts
BUILTIN_IDS = [e.id for e in corpus.builtin_corpus(validate=False)]
SMALL_ENTRIES = [e for e in corpus.builtin_corpus(validate=False)
                 if e.presentation.order <= 16]


def _fact_text(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value)) or "-"
    return str(value).lower()


def _block(entry):
    return [f"file {entry.id}.pc"] + [
        f"expect {name} {_fact_text(value)}" for name, value in entry.expected_facts
    ]


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """The small groups' files, renamed m-<id>, and one that is not UTF-8."""
    folder = tmp_path_factory.mktemp("manifests")
    for e in SMALL_ENTRIES:
        text = serialize_presentation(e.presentation)
        (folder / f"{e.id}.pc").write_text(
            text.replace(f"group {e.id}\n", f"group m-{e.id}\n", 1))
    (folder / "bad.pc").write_bytes(b"group m-bad\xff\nprime 2\ngens 1\norder 1 2\n")
    return folder


@st.composite
def mutated_manifests(draw):
    """(manifest bytes, the first group's id): the blocks of one to three
    small groups with one line dropped, two lines swapped, a path, fact
    name or value replaced by junk, a block repeated, a path pointed at a
    file that is not UTF-8, or a byte that is not UTF-8 written into the
    manifest."""
    entries = draw(st.lists(st.sampled_from(SMALL_ENTRIES), min_size=1, max_size=3,
                            unique_by=lambda e: e.id))
    blocks = [_block(e) for e in entries]
    lines = [line for block in blocks for line in block]
    kind = draw(st.sampled_from(["drop", "swap", "junk", "repeat", "bad-file",
                                 "bad-byte"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "junk":
        tokens = lines[i].split()
        tokens[draw(st.integers(1, len(tokens) - 1))] = draw(REPLACEMENTS)
        lines[i] = " ".join(tokens)
    elif kind == "repeat":
        lines += draw(st.sampled_from(blocks))
    elif kind == "bad-file":
        lines[0] = "file bad.pc"
    data = ("\n".join(lines) + "\n").encode()
    if kind == "bad-byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, f"m-{entries[0].id}"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=mutated_manifests(),
       check=st.sampled_from(["lemma-2.8", "cor-2.4", "thm-3.6", "lemma-3.4"]))
def test_mutated_manifests_end_in_an_exit_code(manifest_dir, case, check):
    """Only ForgeError escapes `load_manifest`, and `forge verify` with
    the manifest answers 0, 1 or 2 without a traceback; a manifest that
    does not load is exit 2."""
    data, group = case
    manifest = manifest_dir / "m.txt"
    manifest.write_bytes(data)
    try:
        load_manifest(manifest, taken=BUILTIN_IDS)
        loaded = True
    except ForgeError:
        loaded = False
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", check, "--group", group, "--manifest", str(manifest)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if not loaded:
        assert code == 2 and err.getvalue().startswith("error: ")
