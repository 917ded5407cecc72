import hashlib

from braidphase import verify
from braidphase.cli import main

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
    ("cocycle-classification.n2", "cocycle"),
    ("cocycle-classification.n3", "cocycle"),
    ("cocycle-classification.n4", "cocycle"),
    ("cocycle-classification.n5", "cocycle"),
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
    ("kleppner-probe.n3", "cocycle"),
    ("kleppner-probe.n4", "cocycle"),
    ("oracle-agreement", "braid"),
    ("permutation-homomorphism.n2", "braid"),
    ("permutation-homomorphism.n3", "braid"),
    ("permutation-homomorphism.n4", "braid"),
    ("permutation-homomorphism.n5", "braid"),
    ("permutation-homomorphism.n6", "braid"),
    ("pure-rewrite.n2", "braid"),
    ("pure-rewrite.n3", "braid"),
    ("pure-rewrite.n4", "braid"),
    ("pure-sigma-linking.n2", "cocycle"),
    ("pure-sigma-linking.n3", "cocycle"),
    ("pure-sigma-linking.n4", "cocycle"),
    ("pure-sigma-linking.n5", "cocycle"),
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
    ("verdict-logic", "cocycle"),
    ("z-relation.n3", "cocycle"),
    ("z-relation.n4", "cocycle"),
    ("z-relation.n5", "cocycle"),
]


def test_verify_registry_ids():
    assert sorted((c.id, c.suite) for c in verify.build_checks(6)) == REGISTRY_AT_6


# sha256 of the stdout of ``braidphase verify --suite all --seed 0 --max-n 6``,
# without timings.  Any change to a check's seeded inputs, outcome, id or
# citation moves it.
VERIFY_REPORT_SHA256 = "d8d00d022af21abf0383fd1c27cdfc5d2590fdc0aee2d740acef5a642e2b10ee"


def test_verify_report_golden(capsys):
    assert main(["verify", "--suite", "all", "--seed", "0", "--max-n", "6"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_REPORT_SHA256
