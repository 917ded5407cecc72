"""Acceptance suite: one test per criterion, exact checks, pinned budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Each criterion runs checks from :mod:`braidphase.verify`, the
registry behind ``braidphase verify``, at its own seeds and sizes.  Every
assertion is exact (no tolerances); each criterion also pins its wall-clock
budget.
"""

import functools
import random
import time

from braidphase import verify


def criterion(cid: str, description: str, budget_s: float):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {cid} FAIL  {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {cid} PASS  {description}  [{elapsed:.2f}s]")
            assert elapsed < budget_s, f"{cid} took {elapsed:.2f}s, budget {budget_s}s"

        return wrapper

    return decorate


@criterion("1", "defining relations respected by the free-group action, n=2..6", 1.0)
def test_criterion_01_artin_relations():
    for n in range(2, 7):
        assert (cx := verify.artin_relations(n=n)) is None, cx


@criterion("2", "Delta^2 = (s1..s_{n-1})^n = product of all a(i,j), both oracles, n=3..6", 5.0)
def test_criterion_02_braid_center():
    for n in range(3, 7):
        assert (cx := verify.braid_center(n=n)) is None, cx


@criterion("3", "full twist acts by conjugation; x1..xn z is central, n=2..6", 5.0)
def test_criterion_03_center_action_and_semidirect_center():
    for n in range(2, 7):
        assert (cx := verify.center_action(n=n)) is None, cx
        assert (cx := verify.semidirect_center(n=n)) is None, cx


@criterion("4", "classification by (mu1, mu2), decided on the generic table, n=2..8", 30.0)
def test_criterion_04_classification():
    for n in range(2, 9):
        assert (cx := verify.classification(n=n)) is None, cx


@criterion("5", "phi(z, x_i) = mu = (n-1) phi(s_j, x1..xn) on the generic table, n=3..5", 30.0)
def test_criterion_05_z_relation():
    for n in (3, 4, 5):
        assert (cx := verify.z_relation(n=n)) is None, cx


@criterion("6", "central probe: sigma-regular iff total phase torsion, n=3,4", 10.0)
def test_criterion_06_kleppner_probe():
    for n in (3, 4):
        assert (cx := verify.kleppner_probe(n=n)) is None, cx


@criterion("7", "verdict logic: rank-2 iff cases and the rank-3 open middle", 5.0)
def test_criterion_07_verdict_logic():
    assert (cx := verify.verdict_logic()) is None, cx


@criterion("8", "exceptional identities: the rank-3 splitting and the annular relation", 1.0)
def test_criterion_08_remark_identities():
    assert (cx := verify.remark_p3()) is None, cx
    assert (cx := verify.remark_a3()) is None, cx


@criterion("9", "a-alphabet rewriting round-trips, 100 pure words, n<=4, len<=16", 60.0)
def test_criterion_09_rewrite_roundtrip():
    rng = random.Random(2024_09)
    for _ in range(100):
        assert (cx := verify.pure_rewrite(rng, n=rng.randint(2, 4), samples=1)) is None, cx


@criterion("10", "embedded centers are never central again, 3<=m<n<=6", 30.0)
def test_criterion_10_stable_embeddings():
    for m in range(3, 6):
        for n in range(m + 1, 7):
            assert (cx := verify.center_embedding(m=m, n=n)) is None, cx


@criterion("11", "action oracle == canonical-form oracle on 500 seeded pairs", 60.0)
def test_criterion_11_oracle_cross_check():
    rng = random.Random(2024_11)
    assert (cx := verify.oracle_agreement(rng, max_n=5)) is None, cx
