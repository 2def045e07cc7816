"""Exact-algebra tests: rewriting, Weyl-ordered expansions, operator shadows."""

from fractions import Fraction
from random import Random

import pytest

from spincorr.opalg import (
    CASE_I,
    CASE_II,
    Algebra,
    MalformedOperandError,
    OpExpr,
    binom_half,
    binom_minus_half,
    case_algebra,
    expr_sum,
    expr_to_text,
    matchup_report,
    omega_base,
    series_sqrt_expand,
    shadow_equal,
    sym_cross,
    sym_dot_pipi,
    verify_case,
    weyl_order,
)
from spincorr.config import SCHEMA
from spincorr.checks import RESIDUAL_TERMS_SHOWN, check_case_equality, check_ordering_identity
from spincorr.opalg import identities
from spincorr.opalg.core import SPIN_MUL, _fold_i
from spincorr.opalg.printing import leading_terms, term_sort_key
from spincorr.opalg.shadow import G_ZERO, g_add, g_mul, spin_matrices
from test_normal_order import normalize_random

HBAR_E_C = (1, -1, 0, 1, 0)  # units tuple of hbar e / c


def alpha(alg, i):
    """alpha_i = rho_1 (x) sigma_i, spin index 4 + i."""
    return alg.term((), spin=4 + i)


def dot(alg, a, b):
    """a . b for two operator 3-vectors, each product in the order a_i b_i."""
    return expr_sum(alg.multiply(a[i], b[i]) for i in range(3))


def omega_power(case, n, alg):
    """Omega^n by brute-force multiplication, truncated linear in the field."""
    base = omega_base(case, alg)
    out = alg.one()
    for _ in range(n):
        out = alg.multiply(out, base)
    return out


def random_word(rng: Random, max_len: int = 5, allow_field: bool = True):
    n = rng.randint(1, max_len)
    word = [("pi", rng.randint(1, 3)) for _ in range(n)]
    if allow_field and rng.random() < 0.7:
        base = rng.choice(["B", "E"])
        derivs = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(0, 2))))
        word.insert(rng.randint(0, n), (base, rng.randint(1, 3), derivs))
    return tuple(word)


def random_expr(rng: Random, alg: Algebra, nterms: int = 2, **kw) -> OpExpr:
    parts = []
    for _ in range(nterms):
        parts.append(
            alg.canonicalize(
                alg.term(
                    random_word(rng, **kw),
                    spin=rng.randrange(16),
                    coeff=Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)),
                    ipow=rng.randint(0, 3),
                )
            )
        )
    return expr_sum(parts)


class TestCanonicalize:
    def test_momentum_commutator(self):
        """pi2 pi1 = pi1 pi2 - i (hbar e / c) B3 for a charged particle."""
        alg = Algebra(charged=True)
        got = alg.multiply(alg.pi(2), alg.pi(1))
        want = alg.multiply(alg.pi(1), alg.pi(2)) + alg.field("B", 3).scale(
            Fraction(-1), units=HBAR_E_C, ipow=1
        )
        assert got == want

    def test_field_pullthrough(self):
        """pi1 B2 = B2 pi1 - i hbar (d1 B2)."""
        alg = Algebra(charged=True)
        got = alg.multiply(alg.pi(1), alg.field("B", 2))
        want = alg.multiply(alg.field("B", 2), alg.pi(1)) + alg.field(
            "B", 2, (1,)
        ).scale(Fraction(-1), units=(1, 0, 0, 0, 0), ipow=1)
        assert got == want

    def test_neutral_momenta_commute(self):
        alg = Algebra(charged=False)
        assert alg.multiply(alg.pi(3), alg.pi(1)) == alg.multiply(alg.pi(1), alg.pi(3))

    def test_idempotent(self):
        rng = Random(101)
        alg = Algebra(charged=True)
        for _ in range(200):
            e = random_expr(rng, alg)
            assert alg.canonicalize(e) == e

    def test_two_field_words_vanish(self):
        alg = Algebra(charged=True)
        assert alg.multiply(alg.field("B", 1), alg.field("E", 2)).is_zero()
        raw = alg.term((("B", 1, ()), ("E", 2, ())))
        assert alg.canonicalize(raw).is_zero()

    def test_third_derivative_drop_is_counted(self):
        alg = Algebra(charged=False)
        word = (("pi", 1), ("E", 2, (1, 3)))
        alg.canonicalize(alg.term(word))
        assert alg.dropped_derivatives == 1
        alg.canonicalize(alg.term(word))  # memo hit must still count
        assert alg.dropped_derivatives == 2


class TestSpinTable:
    def test_against_kronecker_matrices(self):
        """Every one of the 256 products matches the exact 4x4 representation."""
        mats = spin_matrices()
        for s1 in range(16):
            for s2 in range(16):
                s3, ipw, sign = SPIN_MUL[s1][s2]
                ip, extra = _fold_i(ipw)
                phase = (Fraction(sign * extra), Fraction(0))
                if ip:
                    phase = g_mul(phase, (Fraction(0), Fraction(1)))
                for r in range(4):
                    for c in range(4):
                        prod = G_ZERO
                        for k in range(4):
                            prod = g_add(prod, g_mul(mats[s1][r][k], mats[s2][k][c]))
                        assert prod == g_mul(phase, mats[s3][r][c])

    def test_anticommutators(self):
        alg = Algebra()
        for i in (1, 2, 3):
            ab = alg.multiply(alg.beta(), alpha(alg, i))
            ba = alg.multiply(alpha(alg, i), alg.beta())
            assert (ab + ba).is_zero()
            assert alg.multiply(alpha(alg, i), alpha(alg, i)) == alg.one()
        assert alg.multiply(alg.beta(), alg.beta()) == alg.one()


class TestWeylOrder:
    def test_n_zero(self):
        alg = Algebra(charged=True)
        X = alg.field("B", 2)
        assert weyl_order(alg, X, 0) == X

    def test_n_one(self):
        alg = Algebra(charged=True)
        X = alg.field("B", 2)
        half = Fraction(1, 2)
        want = (
            alg.multiply(X, alg.pi_squared()) + alg.multiply(alg.pi_squared(), X)
        ).scale(half)
        assert weyl_order(alg, X, 1) == want

    def test_uniform_field_commutes(self):
        # with dF = 0 every summand is equal, so the average is X pi^{2n}
        alg = Algebra(charged=True, loose=True)
        X = alg.field("E", 1)
        for n in range(4):
            assert weyl_order(alg, X, n) == alg.multiply(X, alg.pi_even_power(n))

    def test_rejects_field_free_operand(self):
        alg = Algebra(charged=True)
        with pytest.raises(MalformedOperandError):
            weyl_order(alg, alg.pi(1), 1)
        with pytest.raises(MalformedOperandError):
            weyl_order(alg, alg.field("B", 1), -1)


class TestSymmetrizations:
    def test_commuting_limit_dot(self):
        alg = Algebra(charged=True, loose=True)
        got = sym_dot_pipi(alg, "B")
        p, B = alg.pi_vec(), alg.field_vec("B")
        for i in range(3):
            want = expr_sum(alg.product(p[j], B[j], p[i]) for j in range(3))
            assert got[i] == want

    def test_commuting_limit_cross(self):
        alg = Algebra(charged=True, loose=True)
        got = sym_cross(alg, "B")
        want = alg.cross(alg.pi_vec(), alg.field_vec("B"))
        for i in range(3):
            assert got[i] == want[i]

    def test_cross_antisymmetry(self):
        alg = Algebra(charged=True)
        E = alg.field_vec("E")
        p = alg.pi_vec()
        got = sym_cross(alg, "E")
        for i in range(3):
            flipped = (alg.cross(E, p)[i] - alg.cross(p, E)[i]).scale(Fraction(-1, 2))
            assert got[i] == flipped

    def test_strict_minus_loose_is_derivative_correction(self):
        """Noncommutativity only adds hbar-weighted field-derivative words."""
        strict = sym_dot_pipi(Algebra(charged=True), "B")
        loose = sym_dot_pipi(Algebra(charged=True, loose=True), "B")
        for i in range(3):
            diff = strict[i] - loose[i]
            assert not diff.is_zero()
            for (word, _, units, _), _c in diff.terms.items():
                assert units[0] >= 1
                assert any(sym[0] != "pi" and sym[2] for sym in word)


class TestOmegaPowers:
    def test_trivial_orders(self):
        for case in (CASE_I, CASE_II):
            alg = case_algebra(case)
            assert omega_power(case, 0, alg) == alg.one()
            assert omega_power(case, 1, alg) == omega_base(case, alg)

    def test_case_i_n2_explicit(self):
        alg = case_algebra(CASE_I)
        X = expr_sum(
            alg.multiply(alg.sigma(k), alg.field("B", k)) for k in (1, 2, 3)
        ).scale(Fraction(1), units=HBAR_E_C)
        pi2 = alg.pi_squared()
        want = alg.pi_even_power(2) - alg.multiply(X, pi2) - alg.multiply(pi2, X)
        assert omega_power(CASE_I, 2, alg) == want

    def test_closed_form_through_n10(self):
        # Omega^n = pi^{2n} - n (X pi^{2n-2})_W, every n from one weyl_orders call
        for case in (CASE_I, CASE_II):
            alg = case_algebra(case)
            weyl = identities.weyl_orders(alg, identities._field_part(case, alg), 10)
            brute = alg.one()
            base = omega_base(case, alg)
            for n in range(1, 11):
                brute = alg.multiply(brute, base)
                closed = alg.pi_even_power(n) - weyl[n - 1].scale(Fraction(n))
                assert brute == closed, (case, n)

    def test_rejects_negative(self):
        with pytest.raises(MalformedOperandError):
            case_algebra("III")


class TestSeriesExpand:
    def test_order_zero(self):
        alg = case_algebra(CASE_I)
        want = alg.beta().scale(Fraction(1), units=(0, 2, 1, 0, 0))
        assert series_sqrt_expand(CASE_I, 0, alg) == want

    def test_field_free_coefficients(self):
        """Kinetic series beta(mc^2 + pi^2/2m - pi^4/8m^3c^2 + ...)."""
        alg = case_algebra(CASE_II)
        got = series_sqrt_expand(CASE_II, 2, alg).map_words(
            lambda w: w if all(s[0] == "pi" for s in w) else None
        )
        want = (
            alg.beta().scale(Fraction(1), units=(0, 2, 1, 0, 0))
            + alg.multiply(alg.beta(), alg.pi_even_power(1)).scale(
                Fraction(1, 2), units=(0, 0, -1, 0, 0)
            )
            + alg.multiply(alg.beta(), alg.pi_even_power(2)).scale(
                Fraction(-1, 8), units=(0, -2, -3, 0, 0)
            )
        )
        assert got == want

    def test_binomial_prefactors(self):
        assert binom_half(0) == 1
        assert binom_half(1) == Fraction(1, 2)
        assert binom_half(2) == Fraction(-1, 8)
        assert binom_half(3) == Fraction(1, 16)


class TestVerifyCase:
    def test_case_i_full_sweep(self):
        alg = case_algebra(CASE_I)
        for N in range(9):
            ok, diff = verify_case(CASE_I, N, alg)
            assert ok and diff.is_zero(), N

    def test_case_ii_full_sweep(self):
        alg = case_algebra(CASE_II)
        for N in range(9):
            ok, diff = verify_case(CASE_II, N, alg)
            assert ok and diff.is_zero(), N

    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_order_12(self, case):
        """Identity through 1/m^24, with fresh memo tables."""
        ok, diff = verify_case(case, 12, case_algebra(case))
        assert ok and diff.is_zero()

    def test_coefficient_identity_is_the_mechanism(self):
        # the cancellation is (k+1) C(1/2,k+1) = (1/2) C(-1/2,k)
        for k in range(12):
            assert (k + 1) * binom_half(k + 1) == binom_minus_half(k) / 2


class TestMatchup:
    def test_report_all_green(self):
        rep = matchup_report(trials=4, seed=SCHEMA["seed"][1])
        assert rep["ok"]
        assert rep["commuting_identity"]
        assert rep["homogeneous_exact"]
        assert rep["epsilon_expansion"]
        assert rep["defect_decomposition"]
        assert rep["shadow_zero"]

    def test_residual_is_pure_laplacian(self):
        """Strict residual = -(hbar^2/4) laplacian(B_i): reorderings only."""
        from spincorr.opalg.identities import _matchup_delta

        alg = Algebra(charged=True)
        delta = _matchup_delta(alg)
        for i in (1, 2, 3):
            want = expr_sum(
                alg.field("B", i, (j, j)).scale(
                    Fraction(-1, 4), units=(2, 0, 0, 0, 0)
                )
                for j in (1, 2, 3)
            )
            assert delta[i - 1] == want

    def test_defect_coefficients(self):
        rep = matchup_report(trials=1, seed=SCHEMA["seed"][1])
        assert rep["defect_coefficients"] == (Fraction(-1, 2), Fraction(1, 4))


class TestPauliIdentity:
    def test_battery(self):
        """(alpha.A)(alpha.B) = A.B + i sigma.(A x B) over operator vectors.

        Runs the contraction for every ordered pair drawn from {pi, E, B}
        in the charged algebra, plus the two named reductions: pi x pi
        collapsing to the magnetic field and the div E anticommutator.
        """
        alg = Algebra(charged=True)

        def alpha_dot(vec):
            return expr_sum(alg.multiply(alpha(alg, i), vec[i - 1]) for i in (1, 2, 3))

        vecs = {"pi": alg.pi_vec(), "E": alg.field_vec("E"), "B": alg.field_vec("B")}
        for a_name, A in vecs.items():
            for b_name, B in vecs.items():
                if a_name == b_name != "pi":
                    continue  # two-field products are truncated away
                cross = alg.cross(A, B)
                rhs = dot(alg, A, B) + expr_sum(
                    alg.multiply(alg.sigma(k), cross[k - 1]) for k in (1, 2, 3)
                ).scale(Fraction(1), ipow=1)
                lhs = alg.multiply(alpha_dot(A), alpha_dot(B))
                assert (lhs - rhs).is_zero(), (a_name, b_name)

        # pi x pi = i (hbar e / c) B, so the g = 2 coupling appears by itself
        p = alg.pi_vec()
        sigma_b = expr_sum(alg.multiply(alg.sigma(k), alg.field("B", k)) for k in (1, 2, 3))
        rhs = alg.pi_squared() - sigma_b.scale(Fraction(1), units=HBAR_E_C)
        assert (alg.multiply(alpha_dot(p), alpha_dot(p)) - rhs).is_zero()

        # pi.E - E.pi = -i hbar div E
        E = alg.field_vec("E")
        target = alg.div_e().scale(Fraction(-1), units=(1, 0, 0, 0, 0), ipow=1)
        assert (dot(alg, p, E) - dot(alg, E, p) - target).is_zero()

    def test_pi_cross_pi_collapses_to_field(self):
        alg = Algebra(charged=True)
        cross = alg.cross(alg.pi_vec(), alg.pi_vec())
        for k in (1, 2, 3):
            want = alg.field("B", k).scale(Fraction(1), units=HBAR_E_C, ipow=1)
            assert cross[k - 1] == want

    def test_divergence_reduction(self):
        alg = Algebra(charged=False)
        p, E = alg.pi_vec(), alg.field_vec("E")
        comm = dot(alg, p, E) - dot(alg, E, p)
        want = alg.div_e().scale(Fraction(-1), units=(1, 0, 0, 0, 0), ipow=1)
        assert comm == want


class TestAlgebraProperties:
    def test_associativity_random_triples(self):
        rng = Random(2718)
        for charged in (True, False):
            alg = Algebra(charged=charged)
            for _ in range(60):
                a = random_expr(rng, alg, nterms=2, max_len=3)
                b = random_expr(rng, alg, nterms=2, max_len=3)
                c = random_expr(rng, alg, nterms=2, max_len=3)
                left = alg.multiply(alg.multiply(a, b), c)
                right = alg.multiply(a, alg.multiply(b, c))
                assert left == right

    def test_confluence_1000(self):
        """Randomly ordered rewriting reaches the deterministic normal form."""
        rng = Random(31337)
        alg = Algebra(charged=True)
        for _ in range(1000):
            e = random_expr(rng, alg, nterms=rng.randint(1, 2), max_len=5)
            raw = alg.term(
                random_word(rng, max_len=5),
                spin=rng.randrange(16),
                coeff=Fraction(rng.randint(1, 5), rng.randint(1, 4)),
                ipow=rng.randint(0, 3),
            )
            target = e + alg.canonicalize(raw)
            assert normalize_random(alg, e + raw, Random(rng.random())) == target

    def test_jacobi_identity(self):
        """[[pi_i,pi_j],pi_k] + cyclic = 0, which forces div B = 0."""
        alg = Algebra(charged=True)
        p = alg.pi_vec()

        def comm(a, b):
            return alg.multiply(a, b) - alg.multiply(b, a)

        for i in range(3):
            for j in range(3):
                for k in range(3):
                    total = (
                        comm(comm(p[i], p[j]), p[k])
                        + comm(comm(p[j], p[k]), p[i])
                        + comm(comm(p[k], p[i]), p[j])
                    )
                    assert total.is_zero()

    def test_scale_folds_i_powers(self):
        alg = Algebra()
        e = alg.pi(1)
        assert e.scale(Fraction(1), ipow=4) == e
        assert e.scale(Fraction(1), ipow=2) == e.scale(Fraction(-1))


class TestShadow:
    """Exact operator instantiation: polynomials over Gaussian rationals."""

    def test_charged_field_free_words(self):
        # rule 2 is exact in the representation because B = curl A;
        # length <= 3 keeps every rewrite inside the linear-in-F domain
        rng = Random(55)
        alg = Algebra(charged=True)
        for trial in range(40):
            word = tuple(("pi", rng.randint(1, 3)) for _ in range(rng.randint(2, 3)))
            raw = alg.term(word)
            assert shadow_equal(
                raw, alg.canonicalize(raw), charged=True, trials=2, seed=trial
            ), word

    def test_neutral_words_any_shape(self):
        rng = Random(56)
        alg = Algebra(charged=False)
        for trial in range(40):
            raw = alg.term(random_word(rng, max_len=5))
            assert shadow_equal(
                raw, alg.canonicalize(raw), charged=False, trials=2, seed=trial
            )

    def test_multiply_matches_operator_composition(self):
        """multiply(a, b) acts as (a after b) on wavefunctions, exactly."""
        from spincorr.opalg.shadow import ShadowRep, random_state

        rng = Random(57)
        alg = Algebra(charged=False)
        for trial in range(20):
            a = random_expr(rng, alg, nterms=2, max_len=2, allow_field=True)
            b = random_expr(rng, alg, nterms=2, max_len=2, allow_field=False)
            prod = alg.multiply(a, b)
            rep_rng = Random(9000 + trial)
            rep = ShadowRep(rep_rng, charged=False)
            psi = random_state(rep_rng)
            direct = rep.apply(prod, psi)
            chained = rep.apply(a, rep.apply(b, psi))
            assert direct == chained

    def test_omega_case_ii_raw_concatenation(self):
        """Omega^2 assembled without any canonicalization shadows equally."""
        alg = case_algebra(CASE_II)
        base = omega_base(CASE_II, alg)
        raw_terms = {}
        for (w1, s1, u1, i1), c1 in base.terms.items():
            for (w2, s2, u2, i2), c2 in base.terms.items():
                from spincorr.opalg import word_field_count

                if word_field_count(w1) and word_field_count(w2):
                    continue
                s3, ipw, sg = SPIN_MUL[s1][s2]
                ip, extra = _fold_i(i1 + i2 + ipw)
                key = (w1 + w2, s3, tuple(x + y for x, y in zip(u1, u2)), ip)
                raw_terms[key] = raw_terms.get(key, Fraction(0)) + c1 * c2 * sg * extra
        raw = OpExpr({k: v for k, v in raw_terms.items() if v})
        assert shadow_equal(
            raw, omega_power(CASE_II, 2, alg), charged=False, trials=3, seed=5
        )


class TestCoefficientStreams:
    def test_inverse_gamma_series_numerics(self):
        # float oracle at small argument
        u = 0.01
        # u^n coefficients of 1/gamma, 1/(gamma+1) = (sqrt(1+u) - 1)/u and
        # 1/(gamma(gamma+1)) = (1 - 1/sqrt(1+u))/u, with u = (pi/mc)^2
        for fn, ref in (
            (binom_minus_half, (1 + u) ** -0.5),
            (lambda n: binom_half(n + 1), 1.0 / ((1 + u) ** 0.5 + 1)),
            (lambda n: -binom_minus_half(n + 1), 1.0 / ((1 + u) ** 0.5 * ((1 + u) ** 0.5 + 1))),
        ):
            total = sum(float(fn(n)) * u**n for n in range(12))
            assert abs(total - ref) < 1e-15

    def test_minus_half_values(self):
        assert binom_minus_half(1) == Fraction(-1, 2)
        assert binom_minus_half(2) == Fraction(3, 8)


class TestPrinting:
    def test_deterministic_text(self):
        alg = Algebra(charged=True)
        e = alg.multiply(alg.pi(2), alg.pi(1)) + alg.multiply(
            alg.sigma(3), alg.field("E", 1, (2,))
        )
        assert expr_to_text(e) == expr_to_text(alg.canonicalize(e))
        assert expr_to_text(OpExpr()) == "0"

    def test_pinned_text(self):
        # fractional coefficients, i, units with negative powers, field words
        # with derivatives, a spin, and printing order
        alg = Algebra(charged=True)
        e = (
            alg.multiply(alg.pi(1), alg.field("B", 2, (3,))).scale(Fraction(-3, 4), (1, -1, 0, 2, 0), 1)
            + alg.multiply(alg.sigma(3), alg.beta()).scale(Fraction(5, 2), (0, 0, -2, 0, 0))
            + alg.pi(2).scale(Fraction(1, 3), (0, 0, 0, 0, 1), 1)
        )
        assert expr_to_text(e) == (
            "5/2 m^-2 [beta*sigma3]  +  -3/4 hbar^2 c^-1 e^2 d1d3_B2  +  1/3 i mu' pi2"
            "  +  -3/4 i hbar c^-1 e^2 d3_B2 pi1"
        )

    def test_records_roundtrip_shape(self):
        # the same text on repeated calls, from equal expressions built apart
        alg = Algebra(charged=True)
        text = expr_to_text(alg.multiply(alg.pi(1), alg.field("B", 2)))
        assert text == expr_to_text(alg.multiply(alg.pi(1), alg.field("B", 2))) == "-1 i hbar d1_B2  +  1 B2 pi1"


class TestCaseEqualityReport:
    def test_work_counters_in_detail(self):
        r = check_case_equality(order=3)
        assert r.passed
        for case in (CASE_I, CASE_II):
            alg = case_algebra(case)
            verify_case(case, 3, alg)
            tag = f"case_{case.lower()}"
            assert r.detail[f"{tag}_dropped_derivatives"] == alg.dropped_derivatives
            assert r.detail[f"{tag}_memo_words"] == alg.memo_words == len(alg._word_memo)
            assert f"{tag}_leading_residual" not in r.detail

    def test_failing_case_reports_leading_residual(self, monkeypatch):
        """One changed coefficient (case I) and a doubled closed form (case II)."""
        claimed = identities.claimed_expansion
        key = min(claimed(CASE_I, 2, case_algebra(CASE_I)).terms, key=term_sort_key)

        def wrong_claim(case, N, alg):
            good = claimed(case, N, alg)
            if case == CASE_II:
                return good.scale(Fraction(2))
            return good + OpExpr({key: Fraction(1, 3)})

        monkeypatch.setattr(identities, "claimed_expansion", wrong_claim)
        r = check_case_equality(order=2)
        assert not r.passed
        assert r.value["case_i_residual_terms"] == 1
        assert r.detail["case_i_leading_residual"] == expr_to_text(OpExpr({key: Fraction(-1, 3)}))
        text_ii = r.detail["case_ii_leading_residual"]
        assert r.value["case_ii_residual_terms"] > 5
        assert text_ii.count("  +  ") == 4
        residual_ii = claimed(CASE_II, 2, case_algebra(CASE_II)).scale(Fraction(-1))
        assert text_ii == expr_to_text(leading_terms(residual_ii, 5))


class TestOrderingIdentityReport:
    def test_passing_run_has_no_residual_text(self):
        r = check_ordering_identity()
        assert r.passed
        assert "leading_residual" not in r.detail

    def test_failing_run_reports_leading_residual(self, monkeypatch):
        """A homogeneous error term in the delta shows up, per component, as text."""
        delta = identities._matchup_delta
        alg = Algebra(charged=True)
        p = alg.pi_vec()
        # six field-derivative-free words in component 1, one in component 3
        bad = [
            expr_sum(alg.product(alg.field("B", j), p[k], p[k]) for j in (1, 2) for k in (0, 1, 2)),
            OpExpr(),
            alg.field("E", 3).scale(Fraction(2, 3)),
        ]

        def wrong_delta(a):
            return [d + b for d, b in zip(delta(a), bad)]

        monkeypatch.setattr(identities, "_matchup_delta", wrong_delta)
        r = check_ordering_identity()
        assert not r.passed
        assert r.value["homogeneous_exact"] is False
        text = r.detail["leading_residual"]
        assert text == [expr_to_text(leading_terms(b, RESIDUAL_TERMS_SHOWN)) for b in bad]
        assert text[0].count("  +  ") == RESIDUAL_TERMS_SHOWN - 1
        assert text[1] == "0"
        assert text[2] == "2/3 E3"
