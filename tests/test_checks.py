"""Registry behavior: sampling, execution, witnesses, and determinism."""

import dataclasses
import functools
import inspect
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qdetlab import ExactMatrix, GaussianRational, ONE, PoleError, ZERO, linalg, parse
from qdetlab.errors import DegenerateSampleError, UsageError
from qdetlab.identities import (
    REGISTRY,
    CheckDef,
    ParamPoint,
    builders,
    check_ids,
    checks_determinants,
    checks_quadratic,
    checks_rows,
    checks_series,
    get_check,
    run_check,
    run_suite,
    sample_point,
)
from qdetlab.identities.points import (
    _NUMERATORS,
    CAPACITY,
    draw,
    draw_matrix,
    draw_r,
    draw_rational,
    draw_roots,
    draw_unit_free,
    draw_x_list,
)
from qdetlab.gaussian import _reduced
from qdetlab.identities.runner import EVIDENCE_PASS, FAIL, PASS, SKIPPED, _render
from qdetlab.gaussian import sign
from qdetlab.orthopoly import AWParams, askey_wilson, askey_wilson_phi, askey_wilson_values, continuous_hahn
from qdetlab.qseries import q_pochhammer
from helpers import I_REF, QQi, at_unit, aw_values_reference, outcome, raised, rand_q, rand_rational, rand_scalar


def sampled_result(check_id, n, seed, trial):
    """The result at the point sample_point(check_id, seed, trial, n), from
    the one evaluation that accepted it."""
    return run_suite([check_id], n_min=n, n_max=n, trials=trial + 1, seed=seed).results[trial]


class TestRegistryShape:
    def test_ids_unique_and_sorted_listing(self):
        ids = check_ids()
        assert len(ids) == len(set(ids)) == 39
        assert ids == sorted(ids)

    def test_single_evidence_check(self):
        evidence = [cid for cid, c in REGISTRY.items() if c.mode == "evidence"]
        assert evidence == ["conjecture_mw3"]

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            get_check("no_such_id")

    def test_every_check_has_summary_and_sizes(self):
        for entry in REGISTRY.values():
            assert entry.summary
            assert entry.default_sizes
            assert min(entry.default_sizes) >= entry.min_size

    def test_every_evaluator_is_declared_under_its_own_name(self):
        # An evaluator left without @check would silently drop out of the
        # registry: the checks modules may define no public plain function.
        for module in (checks_determinants, checks_quadratic, checks_rows, checks_series):
            undeclared = [
                name
                for name, value in vars(module).items()
                if inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not name.startswith("_")
            ]
            assert undeclared == [], module.__name__
        for cid, entry in REGISTRY.items():
            assert entry.evaluate.__name__ == cid

    def test_max_size_is_the_capacity_of_what_a_check_draws(self):
        rows = ("thm_rows", "q_kratt", "r_recurrence", "r_sum", "bottom_rows", "pq_lemma", "m_recurrence", "m_closed")
        sized = dict.fromkeys(rows, 12) | {"residue_ids": 6, "vandermonde_vw": 6, "dj_generic": 6}
        assert {cid: e.max_size for cid, e in REGISTRY.items() if e.max_size is not None} == sized
        for cid, size in sized.items():
            drawn = REGISTRY[cid].sample(random.Random(cid))
            lengths = [len(drawn[slot]) for slot in ("k_tuple", "x_list") if slot in drawn]
            if "matrix_entries" in drawn:
                lengths.append(len(drawn["matrix_entries"]) // size)
            assert lengths == [size], cid
            replaced = dataclasses.replace(REGISTRY[cid], evaluate=lambda pt, n: [])
            assert replaced.max_size == size
        fields = dict(id="x", summary="s", size_role="n", draws=("k_tuple",), default_sizes=(1,))
        with pytest.raises(TypeError):
            CheckDef(**fields, evaluate=lambda pt, n: [], max_size=3)


class TestSampler:
    def test_deterministic(self):
        p1 = sample_point("thm_main_phi", seed=42, trial=3, n=4)
        p2 = sample_point("thm_main_phi", seed=42, trial=3, n=4)
        assert p1 == p2

    def test_different_trials_differ(self):
        p1 = sample_point("thm_main_phi", seed=42, trial=0, n=4)
        p2 = sample_point("thm_main_phi", seed=42, trial=1, n=4)
        assert p1 != p2

    def test_kappa_constraints(self):
        for trial in range(6):
            pt = sample_point("thm_main_phi", seed=7, trial=trial, n=3)
            assert pt.kappa not in (ZERO, ONE, -ONE)
            assert pt.a == pt.alpha * pt.alpha
            assert pt.q == pt.kappa * pt.kappa

    def test_nonvanishing_predicate_for_main_theorem(self):
        n = 5
        for trial in range(4):
            pt = sample_point("thm_main_phi", seed=11, trial=trial, n=n)
            abq2 = pt.a * pt.b * pt.q * pt.q
            for k in range(1, n + 1):
                assert q_pochhammer(abq2, pt.q, k + n + pt.r - 2) != ZERO

    def test_k_tuple_distinct_in_range(self):
        pt = sample_point("thm_rows", seed=3, trial=0, n=6)
        assert len(set(pt.k_tuple)) == len(pt.k_tuple)
        assert all(1 <= k <= 12 for k in pt.k_tuple)

    def test_degeneracy_error_after_exhaustion(self):
        entry = REGISTRY["hankel"]

        def always_pole(pt, n):
            raise ZeroDivisionError("forced")

        broken = dataclasses.replace(entry, evaluate=always_pole)
        try:
            REGISTRY["hankel"] = broken
            with pytest.raises(DegenerateSampleError):
                sample_point("hankel", seed=1, trial=0, n=2)
        finally:
            REGISTRY["hankel"] = entry


class TestRunCheck:
    def test_main_theorem_size_one_value(self):
        pt = sample_point("thm_main_phi", seed=42, trial=0, n=1)
        comparisons = get_check("thm_main_phi").evaluate(pt, 1)
        (label, lhs, rhs) = comparisons[0]
        expected = (
            (ONE - pt.c)
            * q_pochhammer(pt.a * pt.q, pt.q, pt.r)
            / q_pochhammer(pt.a * pt.b * pt.q * pt.q, pt.q, pt.r)
        )
        assert lhs == rhs == expected
        assert run_check("thm_main_phi", 1, pt).status == PASS

    def test_both_theorem_forms_agree_on_shared_points(self):
        # the two closed forms take the same slots, so each sampled point
        # must satisfy both (their right-hand sides are equal)
        for n in range(1, 7):
            pt = sample_point("thm_main_phi", seed=5, trial=2, n=n)
            for check in ("thm_main_phi", "thm_main_aw"):
                assert run_check(check, n, pt).status == PASS

    def test_odd_corollary_degenerates_to_zero_at_c_one(self):
        base = sample_point("cor_odd_phi", seed=9, trial=0, n=3)
        pt = dataclasses.replace(base, c=ONE)
        comparisons = get_check("cor_odd_phi").evaluate(pt, 3)
        (_, lhs, rhs) = comparisons[0]
        assert lhs == rhs == ZERO
        assert run_check("cor_odd_phi", 3, pt).status == PASS

    def test_dj_generic_passes(self):
        assert sampled_result("dj_generic", 4, seed=4, trial=1).status == PASS

    def test_dj_generic_reads_the_leading_block(self):
        pt = sample_point("dj_generic", seed=4, trial=1, n=4)
        size = CAPACITY["matrix_entries"]

        def moved(i, j):
            # The point with entry (i, j) (1-based) of the row-major matrix shifted by 1.
            entries = list(pt.matrix_entries)
            entries[(i - 1) * size + j - 1] += ONE
            return dataclasses.replace(pt, matrix_entries=tuple(entries))

        evaluate = REGISTRY["dj_generic"].evaluate
        assert evaluate(moved(1, 5), 4) == evaluate(pt, 4)
        assert evaluate(moved(4, 4), 4) != evaluate(pt, 4)

    def test_quadratic_phi_smallest_degree(self):
        # at degree 1 the non-terminating factor carries a vanishing multiplier
        assert sampled_result("quadratic_phi", 1, seed=6, trial=0).status == PASS

    def test_quadratic_phi_pole_under_zero_multiplier_is_rejected(self):
        # seed 8 first draws a = b = -3/2, q = -2/3: abq^2 = 1 puts a pole in
        # (abq^2; q)_1 at n = 2 under a vanishing multiplier, which the
        # sampler must reject rather than report as a failure
        report = run_suite(["quadratic_phi"], n_min=2, n_max=2, trials=1, seed=8)
        assert [r.status for r in report.results] == [PASS]

    def test_conjecture_reports_evidence(self):
        result = sampled_result("conjecture_mw3", 3, seed=8, trial=0)
        assert result.status == EVIDENCE_PASS
        assert result.lhs is None and result.rhs is None

    def test_degenerate_point_is_skipped_not_crashed(self):
        base = sample_point("thm_main_phi", seed=10, trial=0, n=2)
        # beta = 1 makes b = 1, a pole of the (bq;q)_{k-2} factor at k = 1
        pt = dataclasses.replace(base, beta=ONE, b=ONE)
        result = run_check("thm_main_phi", 2, pt)
        assert result.status == SKIPPED
        assert result.detail

    def test_failure_carries_witnesses(self):
        entry = REGISTRY["hankel"]
        rigged = dataclasses.replace(
            entry, evaluate=lambda pt, n: [("forced mismatch", ONE, ZERO)]
        )
        try:
            REGISTRY["hankel"] = rigged
            result = run_check("hankel", 2, ParamPoint(seed=1, trial=0))
            assert result.status == FAIL
            assert result.lhs == "1" and result.rhs == "0"
            assert result.detail == "forced mismatch"
        finally:
            REGISTRY["hankel"] = entry


class TestCrossValidation:
    def test_quadratic_forms_agree_at_shared_points(self):
        # the plain and series-form quadratic relations draw the same slots,
        # so one point must satisfy both
        for trial in range(3):
            pt = sample_point("quadratic_clean", seed=21, trial=trial, n=4)
            assert run_check("quadratic_clean", 4, pt).status == PASS
            assert run_check("quadratic_phi", 4, pt).status == PASS

    def test_quadratic_full_is_the_relation_in_a_b_q(self):
        # The printed relation: kappa^e scales the first two Askey-Wilson
        # parameters, and its prefactors are in a, b and q themselves.
        for n in range(2, 6):
            pt = sample_point("quadratic_full", seed=23, trial=0, n=n)
            al, be, ga, ka, a, b, q = pt.alpha, pt.beta, pt.gamma, pt.kappa, pt.a, pt.b, pt.q

            def p(e1, e2, top):
                # the values r_k at the imaginary parameters (s = -1); each
                # product below is i^{2n-2} times the product of the p_k
                params = AWParams(al * ga * ka**e1, -(al / ga) * ka**e2, be, -be, q, ZERO)
                return askey_wilson_values(top, params, -1)

            p11, p33, p31, p13 = p(1, 1, n), p(3, 3, n - 1), p(3, 1, n - 1), p(1, 3, n - 1)
            lhs = a * q * (ONE - q ** (n - 1)) * (ONE - b * q ** (n - 2)) * p11[n] * p33[n - 2]
            rhs = (ONE - a * q**n) * (ONE - a * b * q**n) * p11[n - 1] * p33[n - 1]
            rhs = rhs - (ONE - a * q) * (ONE - a * b * q ** (2 * n - 1)) * p31[n - 1] * p13[n - 1]
            [(_, got_lhs, got_rhs)] = get_check("quadratic_full").evaluate(pt, n)
            assert (got_lhs, got_rhs) == (lhs, rhs)
            assert lhs != ZERO

    def test_specialized_condensation_follows_generic_shape(self):
        # the raw five-minor identity holds on the shifted q-moment kernel,
        # which is what the specialized check rearranges
        from qdetlab import determinant, submatrix
        from qdetlab.identities import build_theorem_matrix

        pt = sample_point("dj_specialized", seed=22, trial=0, n=5)
        n = 5
        a = build_theorem_matrix(n, 0, pt.a, pt.b, pt.c, pt.q)
        inner = list(range(2, n))
        head = list(range(1, n))
        tail = list(range(2, n + 1))
        lhs = determinant(submatrix(a, inner, inner)) * determinant(a)
        rhs = determinant(submatrix(a, head, head)) * determinant(
            submatrix(a, tail, tail)
        ) - determinant(submatrix(a, head, tail)) * determinant(submatrix(a, tail, head))
        assert lhs == rhs
        assert run_check("dj_specialized", n, pt).status == PASS

    def test_suite_reports_skips_when_sampling_exhausted(self):
        entry = REGISTRY["andrews"]

        def always_pole(pt, n):
            raise ZeroDivisionError("forced")

        try:
            REGISTRY["andrews"] = dataclasses.replace(entry, evaluate=always_pole)
            report = run_suite(["andrews"], n_min=1, n_max=1, trials=1, seed=1)
            assert report.summary["skipped"] == 1
            assert not report.failed
        finally:
            REGISTRY["andrews"] = entry


def quadratic_relation_qqi(n, a, b, c, d, q, x):
    """Both sides of the quadratic relation over QQ(i) at QQi parameters, the
    values by the printed recurrence."""

    def p(aa, bb, top):
        return aw_values_reference(top, AWParams(aa, bb, c, d, q, x))

    p00, p11 = p(a, b, n), p(a * q, b * q, n - 1)
    p10, p01 = p(a * q, b, n - 1), p(a, b * q, n - 1)
    lhs = a * b * (ONE - q ** (n - 1)) * (ONE - c * d * q ** (n - 2)) * p00[n] * p11[n - 2]
    rhs = (ONE - a * b * q ** (n - 1)) * (ONE - a * b * c * d * q ** (n - 1)) * p00[n - 1] * p11[n - 1]
    rhs = rhs - (ONE - a * b) * (ONE - a * b * c * d * q ** (2 * n - 2)) * p10[n - 1] * p01[n - 1]
    return lhs, rhs


def phi_qqi(numerators, denominators, q, order):
    """r+1_phi_r(numerators; denominators; q, q) up to q^order over QQ(i),
    term by term; a vanishing denominator factor is a PoleError."""
    total = term = QQi(1)
    qk = ONE
    for _ in range(order):
        num, den = q, ONE - q * qk
        for a in numerators:
            num = num * (ONE - a * qk)
        for b in denominators:
            den = den * (ONE - b * qk)
        if not den:
            raise PoleError("vanishing denominator factor", "reference")
        term = term * num / den
        total = total + term
        qk = qk * q
    return total


class TestUnitPowerForms:
    """The forms that carry i as a known power, against their QQ(i) forms."""

    def test_quadratic_relation_at_imaginary_parameters_matches_the_qqi_form(self):
        # At s = -1 the relation's sides are those over QQ(i) at i a, i b,
        # i c, i d and i x divided by i^{2n-2}, or both raise the same pole.
        # Half the sets are quadratic_full's, from roots, at x = 0.
        rng = random.Random(31)
        poles = compared = 0
        for trial in range(80):
            q = rand_q(rng)
            if trial % 2:
                al, be, ga, ka = rand_scalar(rng), rand_rational(rng), rand_scalar(rng), rand_q(rng)
                a, b, c, d, q, x = al * ga * ka, -(al / ga) * ka, be, -be, ka * ka, ZERO
            else:
                a, b, c, x = (rand_rational(rng) for _ in range(4))
                d = rng.choice([rand_rational(rng), -(q ** rng.randint(-3, 1)) / (a or ONE)])
            n = rng.randint(1, 6)
            got = outcome(lambda: tuple(I_REF ** (2 * n - 2) * v for v in checks_quadratic._quadratic_relation(n, a, b, c, d, q, x, -1)))
            qa, qb, qc, qd, qx = at_unit(-1, a, b, c, d, x)
            assert got == outcome(quadratic_relation_qqi, n, qa, qb, qc, qd, q, qx), (a, b, c, d, q, x, n)
            poles += raised(got)
            compared += not raised(got)
        assert poles > 5 and compared > 50

    def test_quadratic_phi_series_matches_the_qqi_series(self):
        # quadratic_phi's series, the 4-phi-3 with the pair a i, -a i as the
        # factor 1 + a^2 q^{2k}, against the series over QQ(i) with that pair
        # as two numerators: both raise PoleError or give the same value.
        rng = random.Random(32)
        poles = compared = 0
        for _ in range(80):
            a, b, c, q = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng), rand_q(rng)
            pick = rng.random()
            if pick < 0.2:
                b = q ** -rng.randint(0, 3) / a  # ab q^k = 1
            elif pick < 0.4:
                c = rng.choice([1, -1]) * q ** -rng.randint(0, 3) / a  # ac q^k = +-1
            for aa, bb in ((a, b), (a * q, b * q), (a * q, b), (a, b * q)):
                m = rng.randint(0, 5)
                got = outcome(askey_wilson_phi, m, AWParams(aa, bb, c, -c, q, ZERO))
                ai = I_REF * aa
                expected = outcome(
                    phi_qqi, (q**-m, -(aa * bb * c * c) * q ** (m - 1), ai, -ai), (aa * bb, aa * c, -(aa * c)), q, m
                )
                if raised(got) or raised(expected):
                    assert got[0] is expected[0] is PoleError, (aa, bb, c, q, m)
                    poles += 1
                else:
                    assert got == expected, (aa, bb, c, q, m)
                    compared += 1
        assert poles > 20 and compared > 200


# One non-equivalent perturbation of each form that carries i as a known power,
# patched into the module that calls it.
PERTURBED = {
    # the 4-phi-3 without its s^n
    "thm_main_aw": (checks_determinants, "askey_wilson", lambda n, p, s=1: askey_wilson(n, p, s) * s**n),
    # s -> -s in the recurrence
    "quadratic_full": (checks_quadratic, "askey_wilson_values", lambda n, p, s=1: askey_wilson_values(n, p, -s)),
    # u^k read as (-u)^k: the (-i)^n of the closed forms no longer cancels it
    "nishizawa": (
        checks_determinants, "askey_wilson_values",
        lambda n, p, s=1: {k: sign(k) * v for k, v in askey_wilson_values(n, p, s).items()},
    ),
    # the paired factor 1 + a^2 q^{2k} as 1 - a^2 q^{2k}
    "quadratic_phi": (checks_quadratic, "askey_wilson_phi", lambda n, p, s=1: askey_wilson_phi(n, p, -s)),
    # (-2)^n -> 2^n
    "classical_hahn": (checks_determinants, "continuous_hahn", lambda n, *args: sign(n) * continuous_hahn(n, *args)),
}


@pytest.mark.parametrize("check_id", sorted(PERTURBED))
def test_perturbed_unit_power_form_fails(check_id, monkeypatch):
    assert run_suite([check_id], trials=2).summary["fail"] == 0
    module, name, perturbed = PERTURBED[check_id]
    monkeypatch.setattr(module, name, perturbed)
    assert run_suite([check_id], trials=2).summary["fail"] > 0


# The checks whose closed products are gaussian._ratio calls, by the module that
# makes them.
RATIO_CHECKS = [
    *((checks_determinants, check_id) for check_id in (
        "hankel", "pfaffian_moments", "mehta_wang", "nishizawa", "thm_main_phi", "thm_main_aw",
        "cor_even_phi", "cor_even_aw", "cor_odd_phi", "cor_odd_aw",
        "classical_hahn", "classical_wilson_even", "classical_wilson_odd",
    )),
    *((checks_rows, check_id) for check_id in ("thm_rows", "q_kratt", "m_closed")),
]


@pytest.mark.parametrize("module, check_id", RATIO_CHECKS, ids=[check_id for _, check_id in RATIO_CHECKS])
def test_closed_product_without_its_last_factor_fails(module, check_id, monkeypatch):
    """Every factor of a closed product reaches the comparison: without its
    last denominator (or, if it has none, its last numerator) the check fails."""
    assert run_suite([check_id], n_min=3, n_max=3, trials=2).summary["fail"] == 0
    ratio = module._ratio

    def dropped(numerators, denominators=()):
        numerators, denominators = list(numerators), list(denominators)
        return ratio(numerators, denominators[:-1]) if denominators else ratio(numerators[:-1])

    monkeypatch.setattr(module, "_ratio", dropped)
    assert run_suite([check_id], n_min=3, n_max=3, trials=2).summary["fail"] > 0


def test_vandermonde_is_the_product_over_pairs():
    rng = random.Random(67)
    for n in range(7):
        for _ in range(4):
            xs = [rand_rational(rng) for _ in range(n)]
            expected = ONE
            for i in range(n):
                for j in range(i + 1, n):
                    expected = expected * (xs[i] - xs[j])
            assert checks_rows._vandermonde(xs) == expected
    assert checks_rows._vandermonde([ONE, GaussianRational(2), ONE]) == ZERO


def _without_last_factor(xs, _vandermonde=checks_rows._vandermonde):
    vandermonde = _vandermonde(xs)
    return vandermonde / (xs[-2] - xs[-1]) if len(xs) > 1 else vandermonde


def _shift_doubled(xs, shift, first=1, _column_products=builders.column_products):
    return _column_products(xs, 2 * shift, first)


def _columns_scaled(*args, _row_factor_pairs=builders._row_factor_pairs):
    return [(r * (j + 1), d) for j, (r, d) in enumerate(_row_factor_pairs(*args), 1)]


def _minor_without_row_denominators(m, row_idx, col_idx, _minor=linalg.minor):
    integer_rows = ExactMatrix.from_pairs(m.rows, m.cols, [[(x, 1) for x in w] for _, w in m._cleared_rows])
    return _minor(integer_rows, row_idx, col_idx)


def _borders_read_one_late(m, _bordered_determinants=linalg.bordered_determinants):
    dets = _bordered_determinants(m)
    return dets[1:] + dets[:1]


def _pfaffian_times_last_row_lcm(m, _pfaffian=linalg.pfaffian):
    return _pfaffian(m) * GaussianRational(m._cleared_rows[-1][0])


# One non-equivalent mutant of a shared helper of the rows family or of a
# linalg routine, as the patches that put it in place, and the checks it
# must make fail.  Scaling one column alike in every row is an equivalent
# mutant for m_recurrence, whose determinants all scale alike.  Leaving the
# row denominators out of the elimination that determinant and minor share
# is an equivalent mutant for dj_generic, whose two sides lose the same
# product of them; the minor mutant leaves determinant as it is.  The
# Pfaffian times its last row's lcm models one row denominator left in.
HELPER_MUTANTS = {
    "minor": (
        [(checks_quadratic, "minor", _minor_without_row_denominators), (checks_rows, "minor", _minor_without_row_denominators)],
        ["dj_generic", "triangular_inverses", "pq_lemma"],
    ),
    "bordered_determinants": ([(checks_rows, "bordered_determinants", _borders_read_one_late)], ["vandermonde_vw"]),
    "vandermonde": ([(checks_rows, "_vandermonde", _without_last_factor)], ["vandermonde_vw", "pq_lemma"]),
    "column_products": (
        [(builders, "column_products", _shift_doubled), (checks_rows, "column_products", _shift_doubled)],
        ["bottom_rows", "residue_ids", "pq_lemma"],
    ),
    "row_factor_pairs": ([(builders, "_row_factor_pairs", _columns_scaled)], ["m_recurrence"]),
    "pfaffian": (
        [(checks_determinants, "pfaffian", _pfaffian_times_last_row_lcm)],
        ["c1_pfaffian_square", "pfaffian_moments"],
    ),
}
HELPER_KILLS = [(mutant, check_id) for mutant, (_, killed) in HELPER_MUTANTS.items() for check_id in killed]


@pytest.mark.parametrize("mutant, check_id", HELPER_KILLS, ids=[f"{m}-{c}" for m, c in HELPER_KILLS])
def test_helper_mutant_fails(mutant, check_id, monkeypatch):
    """Every product of the rows family, and every minor, bordered
    determinant and Pfaffian, reaches the comparison of each check that
    reads it: perturbed, the check fails."""
    assert run_suite([check_id], n_min=3, n_max=3, trials=2).summary["fail"] == 0
    for module, name, perturbed in HELPER_MUTANTS[mutant][0]:
        monkeypatch.setattr(module, name, perturbed)
    assert run_suite([check_id], n_min=3, n_max=3, trials=2).summary["fail"] > 0


class TestRootFlipInvariance:
    @pytest.mark.parametrize(
        "check_id, n",
        [
            ("thm_main_phi", 3),
            ("thm_main_aw", 3),
            ("quadratic_full", 3),
            ("watson", 3),
            ("w8_contiguous", 2),
        ],
    )
    def test_alpha_sign_flip_preserves_pass(self, check_id, n):
        pt = sample_point(check_id, seed=13, trial=0, n=n)
        assert run_check(check_id, n, pt).status == PASS
        flipped = dataclasses.replace(pt, alpha=-pt.alpha)
        assert run_check(check_id, n, flipped).status == PASS

    def test_nishizawa_root_flips(self):
        pt = sample_point("nishizawa", seed=13, trial=1, n=3)
        assert run_check("nishizawa", 3, pt).status == PASS
        for flip in (
            dataclasses.replace(pt, s_half=-pt.s_half),
            dataclasses.replace(pt, t_half=-pt.t_half),
        ):
            assert run_check("nishizawa", 3, flip).status == PASS


class TestRunSuite:
    def test_byte_identical_reports(self):
        r1 = run_suite(["hankel", "andrews"], trials=2, seed=123)
        r2 = run_suite(["hankel", "andrews"], trials=2, seed=123)
        assert r1.to_json() == r2.to_json()
        assert r1.to_text() == r2.to_text()

    def test_results_ordered_by_check_size_trial(self):
        r = run_suite(["mehta_wang", "andrews"], trials=2, seed=1)
        keys = [(res.check, res.n, res.trial) for res in r.results]
        assert keys == sorted(keys)

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            run_suite(["no_such_id"], trials=1, seed=1)

    def test_empty_requests_rejected(self):
        with pytest.raises(ValueError):
            run_suite([], trials=1, seed=1)
        with pytest.raises(ValueError):
            run_suite(["hankel"], n_min=4, n_max=2, trials=1, seed=1)
        with pytest.raises(ValueError):
            run_suite(["hankel"], trials=0, seed=1)
        # windows outside every requested check's size range
        with pytest.raises(UsageError):
            run_suite(["dj_generic"], n_min=7, trials=1, seed=1)
        with pytest.raises(UsageError):
            run_suite(["hankel"], n_max=0, trials=1, seed=1)

    def test_size_window_clamped_to_check_bounds(self):
        r = run_suite(["residue_ids"], n_min=5, n_max=9, trials=1, seed=2)
        sizes = {res.n for res in r.results}
        assert sizes == {5, 6}

    def test_one_sided_size_windows(self):
        r = run_suite(["hankel"], n_min=4, trials=1, seed=2)
        assert {res.n for res in r.results} == {4, 5, 6}
        r = run_suite(["bottom_rows"], n_max=3, trials=1, seed=2)
        assert {res.n for res in r.results} == {2, 3}
        # hankel has no size cap: a floor above its default sizes runs alone
        r = run_suite(["hankel"], n_min=7, trials=1, seed=2)
        assert {res.n for res in r.results} == {7}

    def test_seed_changes_points_not_verdicts(self):
        r1 = run_suite(["q_kratt"], trials=1, seed=1)
        r2 = run_suite(["q_kratt"], trials=1, seed=2)
        assert all(res.status == PASS for res in r1.results + r2.results)
        assert r1.to_json() != r2.to_json()


# The draws as first written: every scalar a Fraction built from rng.choice and
# rng.randint, then a GaussianRational built from it.  The draws themselves read
# rng.getrandbits directly; each must leave the same value and RNG state.


def fraction_draw_rational(rng):
    return GaussianRational(Fraction(rng.choice(_NUMERATORS), rng.randint(1, 9)))


def fraction_draw_unit_free(rng):
    while True:
        v = fraction_draw_rational(rng)
        if v != ONE and v != -ONE:
            return v


def fraction_draw_r(rng):
    return rng.randint(-2, 3)


def fraction_draw_x_list(rng):
    while True:
        values = tuple(fraction_draw_rational(rng) for _ in range(CAPACITY["x_list"]))
        if len(set(values)) == len(values):
            return values


def fraction_draw_matrix(rng):
    return tuple(fraction_draw_rational(rng) for _ in range(CAPACITY["matrix_entries"] ** 2))


def fraction_draw_roots(rng):
    kappa = fraction_draw_unit_free(rng)
    alpha, beta, gamma = (fraction_draw_rational(rng) for _ in range(3))
    roots = {"kappa": kappa, "alpha": alpha, "beta": beta, "gamma": gamma}
    squares = {"a": alpha, "b": beta, "c": gamma, "q": kappa}
    return roots | {name: root * root for name, root in squares.items()}


def fraction_draw_extras(rng):
    return {"extras": tuple(fraction_draw_rational(rng) for _ in range(3))}


def _exact(value):
    """Every scalar in a drawn value as its (num, den) ints."""
    if isinstance(value, GaussianRational):
        return value._r, value._d
    if isinstance(value, dict):
        return {name: _exact(v) for name, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    return value


@pytest.mark.parametrize(
    "draw, reference",
    [
        (draw_rational, fraction_draw_rational),
        (draw_unit_free, fraction_draw_unit_free),
        (draw_r, fraction_draw_r),
        (draw_x_list, fraction_draw_x_list),
        (draw_matrix, fraction_draw_matrix),
        (draw_roots, fraction_draw_roots),
        (functools.partial(draw, ("extras:3",)), fraction_draw_extras),
    ],
)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64))
@example(seed=2024)
def test_draws_match_fraction_construction_and_rng_state(draw, reference, seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(40):
        value, expected = draw(rng), reference(ref_rng)
        assert _exact(value) == _exact(expected)
        assert rng.getstate() == ref_rng.getstate()


def test_draw_rational_reads_the_documented_rule():
    # The draw table holds what the rule gives: 5-bit numerator index and
    # 4-bit denominator draws, each redrawn while out of range, then reduced.
    for seed in range(5):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(500):
            k = twin.getrandbits(5)
            while k >= 18:
                k = twin.getrandbits(5)
            d = twin.getrandbits(4)
            while d >= 9:
                d = twin.getrandbits(4)
            assert _exact(draw_rational(rng)) == _exact(_reduced(_NUMERATORS[k], d + 1))
        assert rng.getstate() == twin.getstate()


def described_by_str(point):
    """ParamPoint.describe as first written: every set slot after seed and
    trial in declaration order, each scalar rendered with str."""
    out = {}
    for slot in dataclasses.fields(ParamPoint)[2:]:
        value = getattr(point, slot.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            out[slot.name] = [v if isinstance(v, int) else str(v) for v in value]
        else:
            out[slot.name] = value if isinstance(value, int) else str(value)
    return out


def test_describe_of_a_sampled_point_of_every_check():
    # between them the checks draw every kind: plain rationals, roots and their
    # squares, unit-free q and kappa, r, index tuples, x lists, extras, matrices
    slots = set()
    for cid in check_ids():
        point = sample_point(cid, 2012, 1, get_check(cid).default_sizes[0])
        assert json.dumps(point.describe()) == json.dumps(described_by_str(point))
        slots.update(point.describe())
    assert slots == {slot.name for slot in dataclasses.fields(ParamPoint)[2:]}


@pytest.mark.parametrize(
    "point, expected",
    [
        # scalars outside the draw table: a fraction, a negated square, a table value's equal
        (
            ParamPoint(seed=1, a=parse("22/7"), b=-parse("81/16"), x_list=(parse("22/7"), ONE, parse("-2/6"))),
            {"a": "22/7", "b": "-81/16", "x_list": ["22/7", "1", "-1/3"]},
        ),
        (ParamPoint(k_tuple=(3, 1, 2), r=-2, extras=()), {"r": -2, "k_tuple": [3, 1, 2], "extras": []}),
        (ParamPoint(seed=5, trial=3), {}),
    ],
)
def test_describe_of_hand_built_points(point, expected):
    assert point.describe() == described_by_str(point) == expected
    assert json.dumps(point.describe()) == json.dumps(expected)


def rendered(value):
    out = []
    _render(value, "", out)
    return "".join(out) + "\n"


# Report-shaped values: results with point dicts (empty for a skipped result),
# str and list slots, and witness strings of any characters.
_text = st.text()
_point = st.dictionaries(_text, _text | st.integers() | st.lists(_text | st.integers()))
_result = st.fixed_dictionaries(
    {"check": _text, "n": st.integers(), "trial": st.integers(), "status": _text, "point": _point},
    optional={"lhs": _text, "rhs": _text, "detail": _text},
)
_report = st.fixed_dictionaries(
    {"version": _text, "seed": st.integers(), "summary": st.dictionaries(_text, st.integers()),
     "results": st.lists(_result, max_size=4)}
)
_nested = st.recursive(
    _text | st.integers(), lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4)
)


@settings(max_examples=200, deadline=None)
@given(value=_report | _nested)
@example(value={"results": [{"point": {}, "detail": '"q\\\x00\x1f\x7f\u00e9\u2028\U0001d11e\ud800', "x": []}]})
@example(value=[{}, [], "", 0, -(2**70)])
def test_render_is_json_dumps_with_indent_2(value):
    assert rendered(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("bad", [True, 1.5, None, {"point": {"slot": None}}, ["0", [False]], {"n": 0.0}])
def test_render_refuses_what_a_report_never_holds(bad):
    with pytest.raises(TypeError):
        rendered(bad)
