import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
import time

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from braidphase.braid import BraidWord, random_reduced_word
from braidphase.cli import main
from braidphase.freegroup import parse_free_word

REPORT_SCHEMA = {
    "type": "object",
    "required": ["suite", "seed", "max_n", "checks", "summary"],
    "properties": {
        "suite": {"type": "string"},
        "seed": {"type": "integer"},
        "max_n": {"type": "integer"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "suite", "citation", "status", "counterexample"],
                "properties": {
                    "id": {"type": "string"},
                    "suite": {"type": "string"},
                    "citation": {"type": "string", "minLength": 1},
                    "status": {"enum": ["pass", "fail"]},
                    "counterexample": {"type": ["string", "null"]},
                    "elapsed_ms": {"type": "integer"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["total", "passed", "failed"],
        },
    },
}


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_normalize_braid(capsys):
    code, out = run_cli(capsys, "normalize", "--group", "bn", "--n", "3", "s1*s1^-1")
    assert code == 0 and out.strip() == "D^0"
    code, out = run_cli(capsys, "normalize", "--group", "bn", "--n", "3", "s1*s2*s1")
    assert code == 0 and out.strip() == "D^1"


def test_normalize_free(capsys):
    code, out = run_cli(capsys, "normalize", "--group", "fn", "--n", "2", "x1*x2*x2^-1")
    assert code == 0 and out.strip() == "x1"


def test_exit_codes(capsys):
    assert run_cli(capsys, "normalize", "--group", "bn", "--n", "3", "b0rk")[0] == 2
    assert run_cli(capsys, "normalize", "--group", "bn", "--n", "3", "s7")[0] == 3
    assert run_cli(capsys, "equal", "--group", "bn", "--n", "3", "s1", "s4")[0] == 3
    # out-of-range generators that cancel or have exponent 0
    assert run_cli(capsys, "equal", "--group", "bn", "--n", "3", "s5*s5^-1", "e")[0] == 3
    assert run_cli(capsys, "normalize", "--group", "bn", "--n", "3", "s5^0")[0] == 3
    assert run_cli(capsys, "normalize", "--group", "fn", "--n", "2", "x7*x7^-1")[0] == 3
    # angles take ASCII decimal integers only; Fraction() would read 1_0/3 as 10/3
    for mu1 in ("1_0/3", "1/3_3"):
        assert run_cli(capsys, "cocycle-build", "--n", "3", "--mu1", mu1)[0] == 2


def test_oversized_braid_word_fails_fast(capsys):
    start = time.perf_counter()
    assert main(["normalize", "--group", "bn", "--n", "3", "s1^1000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1


def test_equal(capsys):
    code, out = run_cli(capsys, "equal", "--group", "bn", "--n", "3", "s1*s2*s1", "s2*s1*s2")
    assert code == 0 and out.strip() == "true"
    for oracle in ("dynnikov", "garside"):
        for left, right, expected in (("s1*s2*s1", "s2*s1*s2", "true"), ("s1", "s2", "false")):
            code, out = run_cli(
                capsys, "equal", "--group", "bn", "--n", "3", "--oracle", oracle, left, right
            )
            assert code == 0 and out.strip() == expected, oracle
    code, out = run_cli(capsys, "equal", "--group", "fn", "--n", "2", "x1*x1^-1", "e")
    assert code == 0 and out.strip() == "true"


def test_equal_default_oracle_long_words(capsys):
    # n = 12 and 10,240 letters: far out of the action's reach, and seconds of Garside
    rng = random.Random(10240)
    left = list(random_reduced_word(12, 10240, rng).letters)
    right = left.copy()
    for _ in range(8):  # relators s_i s_{i+1} s_i s_{i+1}^-1 s_i^-1 s_{i+1}^-1
        i, cut = rng.randint(1, 10), rng.randint(0, len(right))
        right[cut:cut] = [(i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)]
    # near misses, never equal: the commutator of s_i^2 and s_{i+1}^2 put in,
    # which keeps the permutation and the exponent sum, and one letter inverted
    i, cut = rng.randint(1, 10), rng.randint(0, len(right))
    commutator = [(i, 1)] * 2 + [(i + 1, 1)] * 2 + [(i, -1)] * 2 + [(i + 1, -1)] * 2
    pure = right[:cut] + commutator + right[cut:]
    flip = right.copy()
    t = rng.randrange(len(flip))
    flip[t] = (flip[t][0], -flip[t][1])
    words = [str(BraidWord(12, tuple(letters))) for letters in (left, right, pure, flip)]
    for other, expected in zip(words[1:], ("true", "false", "false")):
        code, out = run_cli(capsys, "equal", "--group", "bn", "--n", "12", words[0], other)
        assert code == 0 and out.strip() == expected


def test_act(capsys):
    code, out = run_cli(capsys, "act", "--n", "3", "s1", "x1")
    assert code == 0 and out.strip() == "x2"
    code, out = run_cli(capsys, "act", "--n", "3", "s1", "x1*x2*x3")
    assert code == 0 and out.strip() == "x1*x2*x3"
    # exponents are carried whole, never written out letter by letter
    code, out = run_cli(capsys, "act", "--n", "2", "s1", "x1^10000000000*x2^-3")
    assert code == 0 and out.strip() == "x2^9999999999*x1^-3*x2"
    # every braid fixes x1*...*x12.  First both signs at every index, so that a
    # broken step fails here instead of growing the long case exponentially;
    # then the first word of `scripts/bench_equal.py --pair 12 10240 0`, along
    # which the word applied to stays 12 letters at each step
    product = "*".join(f"x{j}" for j in range(1, 13))
    short = "*".join([f"s{i}" for i in range(1, 12)] + [f"s{i}^-1" for i in range(1, 12)])
    braid = random_reduced_word(12, 10240, random.Random("12:10240:0"))
    for word in (short, str(braid)):
        code, out = run_cli(capsys, "act", "--n", "12", word, product)
        assert code == 0 and out.strip() == product


# act on seeded inputs: (n, braid, free word, letters, sha256 of the output).
ACT_GOLDEN = [
    (3, "s1^2*s2^-2*s1*s2*s1*s2^-2*s1^-1*s2^-1*s1^2*s2^3", "x1*x2^2*x3*x2^2*x3^3", 89,
     "c427384529345f07e0316c633fc9d8e9cae08afc01640202487e6160ce234d1c"),
    (4, "s3*s1^-1*s3*s2^-1*s1*s2^-1*s1*s3^-3*s1*s3*s1^-1*s2*s1^2", "x2*x3^2*x2^-3*x1^3", 115,
     "2eb9545e3f8edcdce4cc361e312f1fbc36fc217e980d23974e940066126c361a"),
    (5, "s4*s2^-1*s3^3*s1^-1*s2*s1^-1*s2*s3^-1*s1*s2^-1*s4*s1*s2*s3^-1",
     "x1^-2*x2^-3*x5^-1*x2^2*x4^-1", 137,
     "72850b6fabf86b6de26e9a5a1265ecf95ae46e697a2bddba48a20e2665eaa3ca"),
    (6, "s4^-2*s5^2*s2^-1*s1*s5^-1*s2*s3^-2*s4^-1*s3^-1*s5*s1*s2^-1*s3",
     "x3^-2*x6^-2*x5*x1^2*x6^-2", 81,
     "ed1b3768ebda686737cd5b8de8b6e27f6a7d8ce77a86e4e7dbf430fd39242005"),
]


@pytest.mark.parametrize("n, braid, word, letters, digest", ACT_GOLDEN)
def test_act_golden(capsys, n, braid, word, letters, digest):
    code, out = run_cli(capsys, "act", "--n", str(n), braid, word)
    text = out.strip()
    assert code == 0 and hashlib.sha256(text.encode()).hexdigest() == digest
    assert sum(abs(e) for _, e in parse_free_word(text, n).letters) == letters


def test_rewrite_pure(capsys):
    code, out = run_cli(capsys, "rewrite-pure", "--n", "3", "s2*s1^2*s2^-1")
    assert code == 0 and out.strip() == "a(1,3)"
    code, _ = run_cli(capsys, "rewrite-pure", "--n", "3", "s1")
    assert code == 3


def test_cocycle_build_classify_verdict(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, out = run_cli(
        capsys,
        "cocycle-build", "--n", "3", "--mu1", "th1", "--mu2", "1/8",
        "--diag", "0,1/4", "-o", str(first),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and len(doc["entries"]) == 6
    code, _ = run_cli(
        capsys,
        "cocycle-build", "--n", "3", "--mu1", "th1", "--mu2", "1/8", "-o", str(second),
    )
    assert code == 0

    code, out = run_cli(capsys, "cocycle-classify", str(first), str(second))
    assert code == 0
    doc = json.loads(out)
    assert doc["similar"] is True and doc["witness"]["x1"] == "0"

    code, out = run_cli(capsys, "verdict", "--cocycle", str(first), "--family", "bn")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "SimpleAndUniqueTrace" and verdict["by"]

    code, out = run_cli(capsys, "verdict", "--cocycle", str(first), "--family", "an")
    assert code == 0 and json.loads(out)["verdict"] == "SimpleAndUniqueTrace"


def test_verdict_examples(tmp_path, capsys):
    # nontorsion rank-2 cocycle
    live = tmp_path / "live.json"
    live.write_text(
        json.dumps({"n": 2, "entries": [["s1", "x1", "th1"], ["s1", "x2", "0"]]})
    )
    code, out = run_cli(capsys, "verdict", "--cocycle", str(live), "--family", "bn")
    assert code == 0 and json.loads(out)["verdict"] == "SimpleAndUniqueTrace"

    dead = tmp_path / "dead.json"
    dead.write_text(
        json.dumps({"n": 2, "entries": [["s1", "x1", "1/2"], ["s1", "x2", "0"]]})
    )
    code, out = run_cli(capsys, "verdict", "--cocycle", str(dead), "--family", "bn")
    assert code == 0 and json.loads(out)["verdict"] == "NotFactor"

    # rank-3 pure cocycle, all nu torsion, one row sum nontorsion
    mixed = tmp_path / "mixed.json"
    mixed.write_text(
        json.dumps(
            {
                "n": 3,
                "entries": [
                    ["a(1,2)", "x1", "th1"],
                    ["a(1,3)", "x1", "-th1"],
                ],
            }
        )
    )
    code, out = run_cli(capsys, "verdict", "--cocycle", str(mixed), "--family", "pn")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "Indeterminate"
    assert doc["details"]["kleppner"] == "holds"


def test_verdict_mackey_missing_omega(tmp_path, capsys):
    pure = tmp_path / "pure.json"
    pure.write_text(json.dumps({"n": 3, "entries": [["a(1,2)", "x1", "1/2"]]}))
    code, _ = run_cli(capsys, "verdict", "--cocycle", str(pure), "--family", "mackey")
    assert code == 4

    pairs = [(1, 2), (1, 3), (2, 3)]
    omega = [[f"a({i},{j})", "z", "0"] for i, j in pairs]
    omega += [["z", f"a({i},{j})", "0"] for i, j in pairs]
    full = tmp_path / "full.json"
    full.write_text(
        json.dumps({"n": 3, "entries": [["a(1,2)", "x1", "1/2"]], "omega": omega})
    )
    code, out = run_cli(capsys, "verdict", "--cocycle", str(full), "--family", "mackey")
    assert code == 0 and json.loads(out)["verdict"] == "NotFactor"


@pytest.mark.parametrize("spelling", ["a( {i} , {j} )", "a(0{i},{j})"])
def test_verdict_mackey_omega_label_spellings(tmp_path, capsys, spelling):
    entries = [["a(1,2)", "x1", "1/2"]]
    pairs = [(1, 2), (1, 3), (2, 3)]

    def verdict(label: str) -> tuple[int, str]:
        omega = [[label.format(i=i, j=j), "z", f"{i}/{j + 4} + th1"] for i, j in pairs]
        omega += [["z", label.format(i=i, j=j), f"{j}/{i + 6}"] for i, j in pairs]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"n": 3, "entries": entries, "omega": omega}))
        return run_cli(capsys, "verdict", "--cocycle", str(path), "--family", "mackey")

    canonical = verdict("a({i},{j})")
    assert canonical[0] == 0 and json.loads(canonical[1])["verdict"] == "Indeterminate"
    assert verdict(spelling) == canonical


def test_cocycle_build_restrict_to_pure(capsys):
    code, out = run_cli(
        capsys, "cocycle-build", "--n", "4", "--mu1", "th1", "--mu2", "1/3",
        "--diag", "1/5,th2,0", "--restrict-to-pure",
    )
    assert code == 0
    rows = {
        "a(1,2)": "th1 th1 2/3 2/3",
        "a(1,3)": "th1 2/3 th1 2/3",
        "a(2,3)": "2/3 th1 th1 2/3",
        "a(1,4)": "th1 2/3 2/3 th1",
        "a(2,4)": "2/3 th1 2/3 th1",
        "a(3,4)": "2/3 2/3 th1 th1",
    }
    entries = [
        [label, f"x{k}", value]
        for label, values in rows.items()
        for k, value in enumerate(values.split(), start=1)
    ]
    assert json.loads(out) == {"n": 4, "entries": entries}


def test_verdict_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "verdict", "--cocycle", str(bad), "--family", "bn")[0] == 2
    assert (
        run_cli(capsys, "verdict", "--cocycle", str(tmp_path / "nope.json"), "--family", "bn")[0]
        == 2
    )
    # a directory, a file that is not UTF-8 and an unwritable output path end
    # in one parse-error line and exit 2, not a traceback
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"n": 2, "entries": [["s1", "x1", "\xe9"]]}')
    good = tmp_path / "good.json"
    assert run_cli(capsys, "cocycle-build", "--n", "2", "--mu1", "0", "-o", str(good))[0] == 0
    for argv in (
        ("verdict", "--cocycle", str(tmp_path), "--family", "bn"),
        ("verdict", "--cocycle", str(latin), "--family", "bn"),
        ("cocycle-classify", str(tmp_path), str(good)),
        ("cocycle-classify", str(good), str(latin)),
        ("cocycle-build", "--n", "2", "--mu1", "0", "-o", str(tmp_path)),
    ):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("parse error:") and err.count("\n") == 1, argv


def test_verify_small_suite_passes_and_validates(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "cocycle", "--seed", "7", "--max-n", "3"
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["summary"]["failed"] == 0
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)
    assert all(c["citation"] for c in report["checks"])


def test_verify_deterministic(capsys):
    _, first = run_cli(capsys, "verify", "--suite", "braid", "--seed", "11", "--max-n", "3")
    _, second = run_cli(capsys, "verify", "--suite", "braid", "--seed", "11", "--max-n", "3")
    assert first == second
    _, third = run_cli(capsys, "verify", "--suite", "braid", "--seed", "12", "--max-n", "3")
    json.loads(third)  # different seed still yields a valid report


def test_verify_timings_flag(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "infinite", "--seed", "5", "--max-n", "4", "--timings"
    )
    assert code == 0
    report = json.loads(out)
    assert all("elapsed_ms" in c for c in report["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--group", "bn", "--n", "0", "s1"],
        ["act", "--n", "0", "s1", "x1"],
        ["equal", "--group", "fn", "--n", "-2", "e", "e"],
        ["cocycle-build", "--n", "1", "--mu1", "0"],
        ["cocycle-build", "--n", "3", "--mu1", "0", "--diag", "0"],
        ["verify", "--max-n", "1"],
    ],
)
def test_bad_sizes_exit_rank_error(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("rank error:") and err.count("\n") == 1


def test_cocycle_classify_rejects_invalid_table(tmp_path, capsys):
    entries = [[f"s{i}", f"x{j}", "0"] for i in (1, 2) for j in (1, 2, 3)]
    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps({"n": 3, "entries": entries}))
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"n": 3, "entries": entries + [["s2", "x1", "1/2"]]}))
    assert main(["cocycle-classify", str(valid), str(invalid)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "rel1[i=1]" in err


@pytest.mark.parametrize(
    "family, doc",
    [
        ("pn", {"n": 3, "entries": [5]}),
        ("mackey", {"n": 3, "entries": [["a(1,2)", "x1", "1/2"]], "omega": 5}),
        ("mackey", {"n": 3, "entries": [["a(1,2)", "x1", "1/2"]], "omega": [5]}),
        ("bn", {"n": 3, "entries": [["s\u00b2", "x1", "0"]]}),
        ("bn", {"n": 3, "entries": [["s1", "x\u00b2", "0"]]}),
    ],
)
def test_verdict_malformed_entries(tmp_path, capsys, family, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["verdict", "--cocycle", str(path), "--family", family]) == 2
    assert capsys.readouterr().err.startswith("parse error:")


def test_verdict_table_with_too_few_strands(tmp_path, capsys):
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"n": 0, "entries": []}))
    assert main(["verdict", "--cocycle", str(tiny), "--family", "pn"]) == 3
    assert capsys.readouterr().err.startswith("rank error:")


# Tokens near the word grammar: letters of every alphabet and a stray one,
# indices in and out of range, well-formed and broken exponents.  Exponents
# stay small or pass the braid letter cap: a braid word of some 10^5 letters
# would parse and then spend seconds in Garside.  The default Dynnikov oracle
# of equal is polynomial and runs.  act applies a braid of a few letters to
# one word a run at a time, so the exponent ^10000000000 costs it nothing.
_INDICES = st.one_of(
    st.integers(-1, 13).map(str),
    st.tuples(st.integers(-1, 13), st.integers(-1, 13)).map(lambda p: f"({p[0]}, {p[1]})"),
    st.text(max_size=3),
)
_EXPONENTS = st.one_of(
    st.just(""),
    st.integers(-3, 3).map(lambda k: f"^{k}"),
    st.sampled_from(["^+2", "^10000000000", "^", "^x", "^1.5", "\u00b2"]),
)
_TOKENS = st.builds(
    lambda letter, index, exp: letter + index + exp,
    st.sampled_from(["s", "x", "a", "t", ""]),
    _INDICES,
    _EXPONENTS,
)
_TEXT = st.one_of(st.text(max_size=12), st.lists(_TOKENS, max_size=6).map("*".join))
_ANGLES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["0", "1/3 + 2*th1", "-th2", "1/0", "2*", "th1*2", "1/2/3"]),
)
_LABELS = st.one_of(
    st.sampled_from(["s1", "s2", "a(1,2)", " a( 1 , 3 ) ", "s\u00b2", "x\u00b2", "z"]),
    st.builds(str.__add__, st.sampled_from(["s", "x", "a"]), _INDICES),
    _TEXT,
)
_ENTRIES = st.lists(
    st.tuples(_LABELS, st.one_of(st.integers(0, 13).map("x{}".format), _LABELS), _ANGLES),
    max_size=3,
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    n=st.integers(0, 12),
    word=_TEXT,
    other=_TEXT,
    angle=_ANGLES,
    entries=_ENTRIES,
    family=st.sampled_from(["bn", "pn", "an", "mackey"]),
)
def test_cli_fuzz_exits_with_documented_code(n, word, other, angle, entries, family):
    omega = [[label, "z", value] for label, _, value in entries]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "entries": entries, "omega": omega}, fh)
        calls = [
            ["normalize", "--group", "bn", "--n", str(n), "--", word],
            ["normalize", "--group", "fn", "--n", str(n), "--", word],
            ["equal", "--group", "bn", "--n", str(n), "--oracle", "garside", "--", word, other],
            ["equal", "--group", "bn", "--n", str(n), "--", word, other],
            ["act", "--n", str(n), "--", word, other],
            ["rewrite-pure", "--n", str(n), "--", word],
            ["cocycle-build", "--n", str(n), f"--mu1={angle}"],
            ["verdict", "--cocycle", path, "--family", family],
        ]
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = main(argv)
            assert code in (0, 1, 2, 3, 4), argv
