import hashlib
import random

from braidphase import artin, verify
from braidphase.braid import (
    BraidWord,
    equal,
    is_inner_for_pure,
    is_pure,
    random_pure_braid_word,
)
from braidphase.cli import main
from braidphase.cocycle import CocycleValidation, SemidirectElement, SigmaRegularReport
from braidphase.freegroup import Character
from braidphase.phase import Angle, parse_angle

# Every check ``braidphase verify --max-n 6`` runs, with its suite.
REGISTRY_AT_6 = [
    ("artin-relations.n2", "braid"),
    ("artin-relations.n3", "braid"),
    ("artin-relations.n4", "braid"),
    ("artin-relations.n5", "braid"),
    ("artin-relations.n6", "braid"),
    ("braid-center.n3", "braid"),
    ("braid-center.n4", "braid"),
    ("braid-center.n5", "braid"),
    ("braid-center.n6", "braid"),
    ("center-action.n2", "braid"),
    ("center-action.n3", "braid"),
    ("center-action.n4", "braid"),
    ("center-action.n5", "braid"),
    ("center-action.n6", "braid"),
    ("center-embedding.m3.n4", "infinite"),
    ("center-embedding.m3.n5", "infinite"),
    ("center-embedding.m3.n6", "infinite"),
    ("center-embedding.m4.n5", "infinite"),
    ("center-embedding.m4.n6", "infinite"),
    ("center-embedding.m5.n6", "infinite"),
    ("coboundary.n2", "cocycle"),
    ("coboundary.n3", "cocycle"),
    ("coboundary.n4", "cocycle"),
    ("coboundary.n5", "cocycle"),
    ("coboundary.n6", "cocycle"),
    ("cocycle-classification.n2", "cocycle"),
    ("cocycle-classification.n3", "cocycle"),
    ("cocycle-classification.n4", "cocycle"),
    ("cocycle-classification.n5", "cocycle"),
    ("cocycle-classification.n6", "cocycle"),
    ("cocycle-extension.n2", "cocycle"),
    ("cocycle-extension.n3", "cocycle"),
    ("cocycle-extension.n4", "cocycle"),
    ("cocycle-extension.n5", "cocycle"),
    ("cocycle-extension.n6", "cocycle"),
    ("dynnikov-agreement.n2", "braid"),
    ("dynnikov-agreement.n3", "braid"),
    ("dynnikov-agreement.n4", "braid"),
    ("dynnikov-agreement.n5", "braid"),
    ("dynnikov-agreement.n6", "braid"),
    ("inner-witness.n2", "braid"),
    ("inner-witness.n3", "braid"),
    ("inner-witness.n4", "braid"),
    ("inner-witness.n5", "braid"),
    ("inner-witness.n6", "braid"),
    ("kernel-action.n2", "braid"),
    ("kernel-action.n3", "braid"),
    ("kernel-action.n4", "braid"),
    ("kernel-action.n5", "braid"),
    ("kernel-action.n6", "braid"),
    ("kleppner-probe.n3", "cocycle"),
    ("kleppner-probe.n4", "cocycle"),
    ("kleppner-probe.n5", "cocycle"),
    ("kleppner-probe.n6", "cocycle"),
    ("oracle-agreement", "braid"),
    ("permutation-homomorphism.n2", "braid"),
    ("permutation-homomorphism.n3", "braid"),
    ("permutation-homomorphism.n4", "braid"),
    ("permutation-homomorphism.n5", "braid"),
    ("permutation-homomorphism.n6", "braid"),
    ("pure-rewrite.n2", "braid"),
    ("pure-rewrite.n3", "braid"),
    ("pure-rewrite.n4", "braid"),
    ("pure-rewrite.n5", "braid"),
    ("pure-rewrite.n6", "braid"),
    ("pure-sigma-linking.n2", "cocycle"),
    ("pure-sigma-linking.n3", "cocycle"),
    ("pure-sigma-linking.n4", "cocycle"),
    ("pure-sigma-linking.n5", "cocycle"),
    ("pure-sigma-linking.n6", "cocycle"),
    ("remark-a3", "braid"),
    ("remark-p3", "braid"),
    ("semidirect-center.n2", "braid"),
    ("semidirect-center.n3", "braid"),
    ("semidirect-center.n4", "braid"),
    ("semidirect-center.n5", "braid"),
    ("semidirect-center.n6", "braid"),
    ("sigma-identity.n2", "cocycle"),
    ("sigma-identity.n3", "cocycle"),
    ("sigma-identity.n4", "cocycle"),
    ("sigma-identity.n5", "cocycle"),
    ("sigma-identity.n6", "cocycle"),
    ("verdict-logic", "cocycle"),
    ("z-relation.n3", "cocycle"),
    ("z-relation.n4", "cocycle"),
    ("z-relation.n5", "cocycle"),
    ("z-relation.n6", "cocycle"),
]


def test_verify_registry_ids():
    assert sorted((c.id, c.suite) for c in verify.build_checks(6)) == REGISTRY_AT_6


# sha256 of the stdout of ``braidphase verify --suite all --seed 0 --max-n 6``,
# without timings.  The report holds each check's id, suite, citation, status
# and counterexample, and the summary: a change of id, suite or citation moves
# it, and new seeded inputs move it only when they change a status or a
# counterexample (null while the check passes).
VERIFY_REPORT_SHA256 = "e4fbdc3b6820b8dc9057d381df7f8503f1c7508616c01ba724354119f26a9703"


def test_verify_report_golden(capsys):
    assert main(["verify", "--suite", "all", "--seed", "0", "--max-n", "6"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_REPORT_SHA256


def test_max_n_bounds_every_check():
    # one size rule: each check that takes a strand count runs up to max_n
    for m in (6, 10):
        checks = {c.id: c for c in verify.build_checks(m)}
        for pattern, *_ in verify.REGISTRY:
            if "{n}" in pattern and "{m}" not in pattern:
                assert pattern.format(n=m) in checks, (pattern, m)
        assert f"center-embedding.m{m - 1}.n{m}" in checks
        assert checks["oracle-agreement"].run.keywords == {"max_n": m}


def test_pure_checks_draw_nontrivial_braids(monkeypatch):
    # a draw of fixed length left no letters beside the closing permutation
    # from n = 7 on (16 letters) or n = 8 (24), so every draw was the identity
    draws = []

    def recorded(n, length, rng):
        draws.append(random_pure_braid_word(n, length, rng))
        return draws[-1]

    monkeypatch.setattr(verify, "random_pure_braid_word", recorded)
    for check, params in ((verify.pure_rewrite, {"samples": 20}),
                          (verify.inner_witness, {}),
                          (verify.pure_sigma_linking, {})):
        for n in range(2, 11):
            draws.clear()
            assert check(random.Random(n), n=n, **params) is None
            assert any(not equal(w, BraidWord.identity(n)) for w in draws), (check, n)


def test_action_checks_run_the_action_callers_use(monkeypatch):
    # s_i only swapping x_i and x_{i+1} (a reduced word stays reduced): the
    # action's one step loses its conjugation, and the checks that hold the
    # action to the centre and to Garside forms must both see it
    def swap(runs, i, sign):
        return tuple((i + 1 if k == i else i if k == i + 1 else k, e) for k, e in runs)

    monkeypatch.setattr(artin, "_substitute", swap)
    assert verify.center_action(n=3) is not None
    assert verify.oracle_agreement(random.Random(0), max_n=4) is not None


def test_kleppner_probe_sees_a_skipped_generator(monkeypatch):
    # sigma_regular without the x_j, or without the s_j discrepancies; at
    # n = 5 and 9 mu = (n-1)/4 vanishes, so the x_j alone cannot tell k = 1
    full = verify.sigma_regular
    for kept in (lambda d, n: d[n:], lambda d, n: d[:n]):
        def partial(sigma, g, kept=kept):
            found = kept(full(sigma, g).discrepancies, g.n)
            return SigmaRegularReport(not any(found), found)

        monkeypatch.setattr(verify, "sigma_regular", partial)
        for n in range(3, 11):
            assert verify.kleppner_probe(n=n) is not None, n


def test_semidirect_center_sees_a_wrong_is_central(monkeypatch):
    # is_central always True, or blind to the free part
    def braid_only(g):
        return is_pure(g.braid) and is_inner_for_pure(g.braid) is not None

    for mutant in (lambda g: True, braid_only):
        monkeypatch.setattr(SemidirectElement, "is_central", property(mutant))
        for n in range(2, 9):
            assert verify.semidirect_center(n=n) is not None, n


def test_a_check_that_raises_is_reported_as_failed(monkeypatch, capsys):
    def broken(sigma, g):
        raise IndexError("pop from empty list")

    monkeypatch.setattr(verify, "sigma_regular", broken)
    report = verify.run_verify("cocycle", 0, 4, False)
    failed = {r["id"]: r["counterexample"] for r in report["checks"] if r["status"] == "fail"}
    assert failed == {f"kleppner-probe.n{n}": "IndexError: pop from empty list" for n in (3, 4)}
    assert report["summary"]["passed"] == report["summary"]["total"] - 2
    capsys.readouterr()
    assert main(["verify", "--suite", "cocycle", "--max-n", "4"]) == 1
    out, err = capsys.readouterr()
    assert '"status": "fail"' in out and "Traceback" not in err

    def exhausted(sigma, g):
        raise MemoryError

    monkeypatch.setattr(verify, "sigma_regular", exhausted)
    assert main(["verify", "--suite", "cocycle", "--max-n", "4"]) == 5


def _drop_label(monkeypatch, label):
    """validate_braid_cocycle as verify sees it, blind to one violation label."""
    full = verify.validate_braid_cocycle

    def validate(c):
        kept = tuple(v for v in full(c).relation_violations if v != label)
        return CocycleValidation(not kept, kept)

    monkeypatch.setattr(verify, "validate_braid_cocycle", validate)


def test_cocycle_extension_sees_each_dropped_relation(monkeypatch):
    # each dropped label lets a table through that extension rejects; twenty
    # sampled tables per n saw the first only at n=6 and the second at n<=4
    for n in range(4, 9):
        _drop_label(monkeypatch, f"rel3[i={n - 2},j=1]")
        assert verify.cocycle_extension(n=n) is not None, n
    for n in range(3, 9):
        _drop_label(monkeypatch, "rel2[i=1]")
        assert verify.cocycle_extension(n=n) is not None, n
    # a middle rel2 is seen only on the table raised from row 3 on
    for n in range(5, 9):
        _drop_label(monkeypatch, "rel2[i=2]")
        assert verify.cocycle_extension(n=n) is not None, n


def test_cocycle_extension_equivalent_drops_pass(monkeypatch):
    # rel1 and rel4 imply rel3 at i <= n-3, and the other rows imply any one
    # rel4: no table tells these validators from the full one
    for label in ("rel3[i=1,j=5]", "rel4[i=2]", "rel1[i=1]"):
        _drop_label(monkeypatch, label)
        assert verify.cocycle_extension(n=5) is None, label


def test_classification_sees_mutant_similarity(monkeypatch):
    # similarity read off mu1 alone, witness by the same recurrence, unchecked
    def mu1_only(c1, c2):
        if c1.entry(1, 1) + c1.entry(1, 2) != c2.entry(1, 1) + c2.entry(1, 2):
            return None
        values = [Angle.zero()]
        for i in range(1, c1.n):
            values.append(values[-1] + c1.entry(i, i) - c2.entry(i, i))
        return Character(c1.n, tuple(values))

    monkeypatch.setattr(verify, "similar_braid_cocycles", mu1_only)
    assert verify.classification(n=2) is None  # no mu2 on two strands
    for n in range(3, 9):
        assert verify.classification(n=n) is not None, n


def test_classification_sees_a_shifted_witness(monkeypatch):
    full = verify.similar_braid_cocycles

    def shifted(c1, c2):
        witness = full(c1, c2)
        if witness is None:
            return None
        values = list(witness.values)
        values[-1] += Angle.rational(1, 2)
        return Character(witness.rank, tuple(values))

    monkeypatch.setattr(verify, "similar_braid_cocycles", shifted)
    for n in range(2, 9):
        assert verify.classification(n=n) is not None, n


def _dense_unimodular_rank(rows: list[list[int]]) -> int | None:
    """The reference: elimination on dense integer rows, pivoting on the first
    +-1 entry of the first row that has one."""
    rows, rank = [r for r in rows if any(r)], 0
    while rows:
        pivot = next(((r, j) for r in rows for j, a in enumerate(r) if a in (1, -1)), None)
        if pivot is None:
            return None
        p, j = pivot
        rows = [[a - r[j] * p[j] * b for a, b in zip(r, p)] for r in rows if r is not p]
        rows, rank = [r for r in rows if any(r)], rank + 1
    return rank


def test_unimodular_rank():
    def rank(*forms):
        return verify._unimodular_rank([parse_angle(f) for f in forms])

    assert rank("a + 2*b", "2*a + 3*b", "3*a + 5*b") == 2
    assert rank("0*a + 0*b", "0") == 0
    # no +-1 pivot: no rank, rather than a guess over Q
    assert rank("2*a + 3*b") is None
    assert rank("2*a", "b") is None


def test_unimodular_rank_matches_dense_elimination():
    # column j is the symbol c{j}, so the sparse rows sort as the dense columns
    rng = random.Random(0)
    for _ in range(3000):
        width = rng.randint(1, 5)
        rows = [[rng.choice((0, 1, -1, 2, -2, 3)) for _ in range(width)]
                for _ in range(rng.randint(1, 5))]
        angles = [Angle(0, ((f"c{j}", a) for j, a in enumerate(row))) for row in rows]
        assert verify._unimodular_rank(angles) == _dense_unimodular_rank(rows), rows
