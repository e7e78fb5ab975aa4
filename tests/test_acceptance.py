"""Acceptance suite: every criterion at its stated tolerance.

All identities here are exact statements in QQ(i), so the tolerance is zero
everywhere: status `pass` means bit-exact structural equality of both sides.
Each criterion prints one PASS/FAIL line (visible with `pytest -s`).
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from qdetlab import ExactMatrix, GaussianRational, ONE, PoleError, ZERO, determinant, pfaffian
from qdetlab.identities import REGISTRY, ParamPoint, check_ids, run_suite
from qdetlab.identities.runner import EVIDENCE_PASS, PASS, Report
from qdetlab.orthopoly import AWParams, askey_wilson, askey_wilson_values
from qdetlab.qseries import q_binomials, q_pochhammer
from helpers import rand_q, rand_scalar, until_clean
from test_linalg import det_cofactor

SEED = 42
TRIALS = 5
# sha256 of the default report (seed 42, 5 trials, every check, epoch-zero stamp)
DEFAULT_REPORT_SHA256 = "1a3ae71987afd273aacb7736face74a775cb7a9cc85f260b908fdca65e48ce11"
# The same report at other seeds; seed 8 holds the point that once made
# quadratic_phi fail falsely.
REPORT_SHA256_AT_SEED = {
    1: "0fd2f6410b47d598f01850c6c0bd1548deb61c9b6a90d70d1ee0ece77951e88e",
    8: "15871243e96fc2b0c9414af43c2dfdda0b2e5dc4c749ff540e88bfa5a78c14e1",
    2012: "b53d4b04fc78a5b9220d514f5cea42cc9c24c362dbea2ebf64e84ae940db9798",
}
# The R-sum and conjugation checks above their default sizes (n = 7..9, 2
# trials, seed 2012), where the dynamic programs and running products run longest.
ROWS_ABOVE_DEFAULT_CHECKS = [
    "bottom_rows", "m_closed", "m_recurrence", "pq_lemma", "r_closed", "r_recurrence", "r_sum", "thm_rows",
]
ROWS_ABOVE_DEFAULT_SHA256 = "6e59ee1c3a876142586d3f358bff43070c9764782cb4437f25ef4a1bf4faa6fd"
# The moment kernels above their default sizes (4 trials, seed 2012): the
# three suites of the kernel_large benchmark workload, where determinants
# reach order 12 and take the primitive-part loop from order 9 on.
KERNELS_ABOVE_DEFAULT = {
    "hankel": (["hankel"], 10, 12, "31cab15f8b4aaaae6938fc94590293cacb6009d9ee32a78fbe2302fadc198787"),
    "theorem": (
        ["thm_main_aw", "thm_main_phi"], 9, 11, "ba247ee19abbde441b45d1adc7a2acfb87bbbe50c6ab8eabb067a3efd2ccb3c5",
    ),
    "pfaffian": (
        ["c1_pfaffian_square", "pfaffian_moments"], 5, 6,
        "3832d1d108c7557c8568a395b28bfdef96e6c70eef04d6302c81b399896d1cd5",
    ),
}


def criterion(num, description, fn):
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def assert_clean(report: Report, allow_evidence: bool = False):
    ok = {PASS, EVIDENCE_PASS} if allow_evidence else {PASS}
    for res in report.results:
        assert res.status in ok, (
            res.check, res.n, res.trial, res.status, res.detail, res.lhs, res.rhs,
        )
    assert report.summary["fail"] == 0
    assert report.summary["skipped"] == 0


def test_criterion_1_main_theorem_both_forms():
    def body():
        start = time.monotonic()
        report = run_suite(["thm_main_phi", "thm_main_aw"], trials=TRIALS, seed=SEED)
        elapsed = time.monotonic() - start
        assert_clean(report)
        assert {res.n for res in report.results} == {1, 2, 3, 4, 5, 6}
        assert all(-2 <= res.point["r"] <= 3 for res in report.results)
        assert len(report.results) == 2 * 6 * TRIALS
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"

    criterion(1, "main determinant identity, series and Askey-Wilson forms, n=1..6", body)


def test_criterion_2_even_odd_corollaries():
    def body():
        report = run_suite(
            ["cor_even_phi", "cor_even_aw", "cor_odd_phi", "cor_odd_aw"],
            trials=TRIALS,
            seed=SEED,
        )
        assert_clean(report)
        assert {res.n for res in report.results} == {1, 2, 3}  # sizes 2..7
        assert len(report.results) == 4 * 3 * TRIALS

    criterion(2, "even/odd corollaries, all four displayed forms, sizes up to 7", body)


def test_criterion_3_hankel_and_pfaffian():
    def body():
        report = run_suite(
            ["hankel", "pfaffian_moments", "c1_pfaffian_square"], trials=TRIALS, seed=SEED
        )
        assert_clean(report)
        hankel_sizes = {res.n for res in report.results if res.check == "hankel"}
        pf_sizes = {res.n for res in report.results if res.check == "pfaffian_moments"}
        assert hankel_sizes == {1, 2, 3, 4, 5, 6}
        assert pf_sizes == {1, 2, 3, 4}  # matrices up to 8x8

    criterion(3, "Hankel determinant and skew Pfaffian identities, c=1 square included", body)


def test_criterion_4_factorial_deformations():
    def body():
        report = run_suite(["mehta_wang", "nishizawa"], trials=TRIALS, seed=SEED)
        assert_clean(report)
        # Each evaluator compares its D-sequence recurrence with the closed
        # sums, so running it to n = 10 checks their agreement there.
        rng = random.Random(2024)
        for _ in range(4):
            a, b = rand_scalar(rng), rand_scalar(rng)
            for n in range(11):
                for _, lhs, rhs in REGISTRY["mehta_wang"].evaluate(ParamPoint(a=a, b=b), n):
                    assert lhs == rhs

        def attempt():
            pt = ParamPoint(s_half=rand_scalar(rng), t_half=rand_scalar(rng), q=rand_q(rng))
            for n in range(11):
                for _, lhs, rhs in REGISTRY["nishizawa"].evaluate(pt, n):
                    assert lhs == rhs

        until_clean(4, attempt)

    criterion(4, "factorial-moment determinants with D-sequence agreement to n=10", body)


def test_criterion_5_classical_corollaries():
    def body():
        report = run_suite(
            ["classical_hahn", "classical_wilson_even", "classical_wilson_odd"],
            trials=TRIALS,
            seed=SEED,
        )
        assert_clean(report)
        hahn_sizes = {res.n for res in report.results if res.check == "classical_hahn"}
        wilson_sizes = {
            res.n for res in report.results if res.check.startswith("classical_wilson")
        }
        assert hahn_sizes == {1, 2, 3, 4, 5}
        assert wilson_sizes == {1, 2}

    criterion(5, "classical corollaries with independent Hahn and Wilson evaluators", body)


def test_criterion_6_rows_machinery():
    def body():
        checks = [
            "thm_rows", "r_closed", "r_recurrence", "r_sum", "q_kratt",
            "residue_ids", "vandermonde_vw", "bottom_rows", "triangular_inverses",
            "pq_lemma", "m_recurrence", "m_closed",
        ]
        start = time.monotonic()
        report = run_suite(checks, trials=TRIALS, seed=SEED)
        elapsed = time.monotonic() - start
        assert_clean(report)
        assert max(res.n for res in report.results) == 6
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"

    criterion(6, "full arbitrary-rows machinery suite at n <= 6", body)


def test_criterion_7_contiguous_relations():
    def body():
        report = run_suite(
            ["phi_contiguous_1", "phi_contiguous_2", "phi_contiguous_3",
             "watson", "w8_contiguous"],
            trials=TRIALS,
            seed=SEED,
        )
        assert_clean(report)
        orders = {res.n for res in report.results if res.check == "phi_contiguous_1"}
        assert orders == {12}
        assert max(
            res.n for res in report.results if res.check in ("watson", "w8_contiguous")
        ) == 5

    criterion(7, "contiguous relations to order 12 and Watson transformation to n=5", body)


def test_criterion_8_origin_factorizations_and_aw_paths():
    def body():
        report = run_suite(["even_odd_factorization", "andrews"], trials=TRIALS, seed=SEED)
        assert_clean(report)
        assert max(res.n for res in report.results if res.check == "andrews") == 8
        rng = random.Random(4096)

        def draw():
            return AWParams(
                rand_scalar(rng), rand_scalar(rng), rand_scalar(rng), rand_scalar(rng),
                rand_q(rng), rand_scalar(rng),
            )

        def paths_agree():
            p = draw()
            n = rng.randint(1, 8)
            assert askey_wilson_values(n, p)[n] == askey_wilson(n, p)

        def permutations_agree():
            p = draw()
            n = rng.randint(1, 4)
            values = {
                askey_wilson(n, AWParams(a, b, c, d, p.q, p.x))
                for a, b, c, d in itertools.permutations((p.a, p.b, p.c, p.d))
            }
            assert len(values) == 1

        until_clean(5, paths_agree)
        until_clean(2, permutations_agree)

    criterion(8, "origin factorizations, Andrews product, and Askey-Wilson path agreement", body)


def test_criterion_9_condensation_and_quadratic_relations():
    def body():
        report = run_suite(
            ["dj_generic", "dj_specialized", "quadratic_full", "quadratic_clean",
             "quadratic_phi"],
            trials=TRIALS,
            seed=SEED,
        )
        assert_clean(report)
        assert max(res.n for res in report.results if res.check == "dj_generic") == 6
        quad_sizes = {res.n for res in report.results if res.check == "quadratic_clean"}
        assert quad_sizes == set(range(1, 9))

    criterion(9, "determinant condensation and quadratic relations at n <= 8", body)


def test_criterion_10_conjecture_evidence():
    def body():
        report = run_suite(["conjecture_mw3"], trials=TRIALS, seed=SEED)
        assert len(report.results) >= 25
        assert_clean(report, allow_evidence=True)
        assert report.summary["evidence_pass"] == len(report.results)
        assert report.summary["evidence_fail"] == 0
        for res in report.results:
            assert {"a", "b", "c", "d", "q", "x"} <= set(res.point)

    criterion(10, "open quadratic conjecture: 30 evidence points, all passing", body)


def test_criterion_11_infrastructure_properties():
    def body():
        rng = random.Random(11)

        def rand_matrix(n):
            return ExactMatrix(n, n, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n * n)])

        for n in (2, 4, 6, 8):
            rows = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = rand_scalar(rng)
                    rows[i][j] = v
                    rows[j][i] = -v
            skew = ExactMatrix.from_rows(rows)
            pf = pfaffian(skew)
            assert pf * pf == determinant(skew)
        for n in range(1, 6):
            m = rand_matrix(n)
            assert determinant(m) == det_cofactor(m)
        # matrices are real: a complex entry is rejected on construction
        with pytest.raises(ValueError, match="not real"):
            ExactMatrix(2, 2, [1, 0, GaussianRational(0, 1), 1])
        for _ in range(40):
            x, y, z = (
                GaussianRational(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                                 Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
                for _ in range(3)
            )
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            if x != ZERO:
                assert x * x**-1 == ONE
        for _ in range(25):
            a, q = rand_scalar(rng), rand_q(rng)
            m, n = rng.randint(-4, 4), rng.randint(-4, 4)
            try:
                lhs = q_pochhammer(a, q, m + n)
                rhs = q_pochhammer(a, q, m) * q_pochhammer(a * q**m, q, n)
            except PoleError:
                continue
            assert lhs == rhs
        for _ in range(10):
            x, q = rand_scalar(rng), rand_q(rng)
            n = rng.randint(0, 12)
            binomial = q_binomials(q, n)
            total = ZERO
            for k in range(n + 1):
                sign = ONE if k % 2 == 0 else -ONE
                total = total + sign * x**k * q ** (k * (k - 1) // 2) * binomial(n, k)
            assert total == q_pochhammer(x, q, n)

    criterion(11, "infrastructure: Pfaffian squares, determinant oracle, real matrices, field axioms", body)


def test_default_suite_is_fast_and_byte_reproducible(monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)

    def body():
        start = time.monotonic()
        first = run_suite(check_ids(), trials=TRIALS, seed=SEED)
        elapsed = time.monotonic() - start
        assert_clean(first, allow_evidence=True)
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
        second = run_suite(check_ids(), trials=TRIALS, seed=SEED)
        assert first.to_json() == second.to_json()
        digest = hashlib.sha256(first.to_json().encode()).hexdigest()
        assert digest == DEFAULT_REPORT_SHA256, digest

    criterion("final", "entire default suite under two minutes and byte-reproducible", body)


@pytest.mark.parametrize("seed", sorted(REPORT_SHA256_AT_SEED))
def test_default_report_is_pinned_at_other_seeds(monkeypatch, seed):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    report = run_suite(check_ids(), trials=TRIALS, seed=seed)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256_AT_SEED[seed]


def test_rows_checks_above_default_sizes_are_pinned(monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    report = run_suite(ROWS_ABOVE_DEFAULT_CHECKS, n_min=7, n_max=9, trials=2, seed=2012)
    assert_clean(report)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == ROWS_ABOVE_DEFAULT_SHA256


@pytest.mark.parametrize("suite", sorted(KERNELS_ABOVE_DEFAULT))
def test_moment_kernels_above_default_sizes_are_pinned(monkeypatch, suite):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    checks, n_min, n_max, digest = KERNELS_ABOVE_DEFAULT[suite]
    report = run_suite(checks, n_min=n_min, n_max=n_max, trials=4, seed=2012)
    assert_clean(report)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
