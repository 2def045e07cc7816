"""Exact-algebra tests: rewriting, Weyl-ordered expansions, operator shadows."""

import re
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
from spincorr.opalg.shadow import SPIN, ShadowRep, _rand_poly, random_state, shadow_is_zero
from test_normal_order import normalize_random, word_field_count

HBAR_E_C = (1, -1, 0, 1, 0)  # units tuple of hbar e / c


# -- the Fraction shadow: the reference the integer shadow is compared against ------------
# Polynomials are {(a, b, c): (re, im)} with Fraction parts, the spin slot a dense 4x4
# Gaussian matrix, and every draw the one the integer shadow makes, in the same order.

Gauss = tuple[Fraction, Fraction]
G_ZERO: Gauss = (Fraction(0), Fraction(0))
G_ONE: Gauss = (Fraction(1), Fraction(0))
_I_POW = (
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(-1)),
)


def g_add(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] + y[0], x[1] + y[1])


def g_mul(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def fp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = g_add(out.get(k, G_ZERO), v)
        if s[0] or s[1]:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def fp_scale(p: dict, g: Gauss) -> dict:
    if not (g[0] or g[1]):
        return {}
    return {k: g_mul(v, g) for k, v in p.items()}


def fp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            s = g_add(out.get(k, G_ZERO), g_mul(va, vb))
            if s[0] or s[1]:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def fp_diff(p: dict, axis: int) -> dict:
    out = {}
    for k, v in p.items():
        if k[axis]:
            k2 = list(k)
            k2[axis] -= 1
            out[tuple(k2)] = g_mul(v, (Fraction(k[axis]), Fraction(0)))
    return out


def spin_matrices() -> list[list[list[Gauss]]]:
    """The 16 Kronecker products rho_a (x) sigma_b, index 4a + b."""
    f = Fraction
    z, o, i_ = G_ZERO, G_ONE, (f(0), f(1))
    pauli = [
        [[o, z], [z, o]],
        [[z, o], [o, z]],
        [[z, (f(0), f(-1))], [i_, z]],
        [[o, z], [z, (f(-1), f(0))]],
    ]
    mats = []
    for a in range(4):
        for b in range(4):
            m = [[G_ZERO] * 4 for _ in range(4)]
            for r1 in range(2):
                for c1 in range(2):
                    for r2 in range(2):
                        for c2 in range(2):
                            m[2 * r1 + r2][2 * c1 + c2] = g_mul(pauli[a][r1][c1], pauli[b][r2][c2])
            mats.append(m)
    return mats


_SPIN_MATS = spin_matrices()


def fraction_rand(rng: Random, lo: int = -3, hi: int = 3) -> Fraction:
    num = rng.randint(lo, hi)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def fraction_rand_poly(rng: Random, degree: int, nterms: int) -> dict:
    out: dict = {}
    for _ in range(nterms):
        k = tuple(rng.randint(0, degree) for _ in range(3))
        if sum(k) > degree:
            continue
        v = fraction_rand(rng)
        if v:
            out[k] = g_add(out.get(k, G_ZERO), (v, Fraction(0)))
    out[(0, 0, 0)] = g_add(out.get((0, 0, 0), G_ZERO), G_ONE)
    return {k: v for k, v in out.items() if v[0] or v[1]}


class FractionShadowRep:
    """ShadowRep on Fraction pairs, one 4x4 Gaussian product per spin slot."""

    def __init__(self, rng: Random, charged: bool):
        self.charged = charged
        self.hbar = fraction_rand(rng, 1, 4)
        self.c = fraction_rand(rng, 1, 4)
        self.m = fraction_rand(rng, 1, 4)
        self.e = fraction_rand(rng, 1, 4) if charged else Fraction(0)
        self.mu_prime = fraction_rand(rng, 1, 4)
        self.jets: dict = {}
        self.A = [fraction_rand_poly(rng, 3, 5) for _ in range(3)]
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            self.jets[("B", i + 1)] = fp_add(
                fp_diff(self.A[k], j),
                fp_scale(fp_diff(self.A[j], k), (Fraction(-1), Fraction(0))),
            )
        for i in (1, 2, 3):
            self.jets[("E", i)] = fraction_rand_poly(rng, 2, 5)

    def unit_value(self, units: tuple) -> Fraction:
        vals = (self.hbar, self.c, self.m, self.e, self.mu_prime)
        out = Fraction(1)
        for v, k in zip(vals, units):
            if k:
                out *= v**k
        return out

    def field_poly(self, base: str, comp: int, derivs: tuple) -> dict:
        p = self.jets[(base, comp)]
        for ax in derivs:
            p = fp_diff(p, ax - 1)
        return p

    def apply_word(self, word: tuple, state: list) -> list:
        """Right-to-left action of a word on a 4-spinor of polynomials."""
        mih = (Fraction(0), -self.hbar)  # -i hbar
        for sym in reversed(word):
            if sym[0] == "pi":
                ax = sym[1] - 1
                new = []
                for comp in state:
                    r = fp_scale(fp_diff(comp, ax), mih)
                    if self.charged and self.e:
                        r = fp_add(r, fp_scale(fp_mul(self.A[ax], comp), (-self.e / self.c, Fraction(0))))
                    new.append(r)
                state = new
            else:
                f = self.field_poly(*sym)
                state = [fp_mul(f, comp) for comp in state]
        return state

    def apply(self, expr: OpExpr, state: list) -> list:
        out = [{} for _ in range(4)]
        for (word, spin, units, ipow), coeff in expr.terms.items():
            scalar = g_mul((coeff * self.unit_value(units), Fraction(0)), _I_POW[ipow % 4])
            ws = self.apply_word(word, state)
            mat = _SPIN_MATS[spin]
            for r in range(4):
                acc: dict = {}
                for ccol in range(4):
                    g = mat[r][ccol]
                    if g[0] or g[1]:
                        acc = fp_add(acc, fp_scale(ws[ccol], g))
                out[r] = fp_add(out[r], fp_scale(acc, scalar))
        return out


def fraction_random_state(rng: Random) -> list:
    return [fraction_rand_poly(rng, 2, 4) for _ in range(4)]


def fraction_shadow_is_zero(expr: OpExpr, charged: bool, trials: int = 4, seed: int = 0) -> bool:
    for t in range(trials):
        rng = Random(1000003 * seed + t)
        rep = FractionShadowRep(rng, charged)
        if any(rep.apply(expr, fraction_random_state(rng))):
            return False
    return True


def as_fractions(state: list) -> list:
    """An integer-shadow spinor as the Fraction shadow writes it."""
    return [{k: (Fraction(re, den), Fraction(im, den)) for k, (re, im) in nums.items()} for den, nums in state]


def both_applications(expr: OpExpr, charged: bool, seed: int) -> tuple[list, list]:
    """expr on random_state in the integer and in the Fraction rep drawn from Random(seed)."""
    rng, fraction_rng = Random(seed), Random(seed)
    got = ShadowRep(rng, charged).apply(expr, random_state(rng))
    rep = FractionShadowRep(fraction_rng, charged)
    return as_fractions(got), rep.apply(expr, fraction_random_state(fraction_rng))


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


@pytest.mark.parametrize(
    "sym",
    [("E", 1, (1, 2, 3)), ("B", 4, ()), ("B", 0, (1,)), ("A", 1, ()), ("E", 2, (4,)), ("pi", 4), ("pi", 0)],
)
def test_symbols_outside_the_algebra_are_refused(sym):
    """More than MAX_DERIVS derivative indices, a component or index outside 1-3, an unknown base."""
    alg = Algebra(charged=True)
    with pytest.raises(ValueError, match=re.escape(repr(sym))):
        alg.term((("pi", 1), sym))
    with pytest.raises(ValueError, match=re.escape(repr(sym))):
        OpExpr({((sym,), 0, (0, 0, 0, 0, 0), 0): Fraction(1)})
    if sym[0] == "pi":
        with pytest.raises(ValueError, match=re.escape(repr(sym))):
            alg.pi(sym[1])
    else:
        with pytest.raises(ValueError, match=re.escape(repr(sym))):
            alg.field(*sym)
    # field() sorts the derivative indices it is given
    assert alg.field("E", 1, (3, 1)) == alg.field("E", 1, (1, 3))


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

    def test_spin_slot_is_a_signed_permutation(self):
        """Row r of rho_a (x) sigma_b holds one power of i, in the column SPIN names."""
        for s, mat in enumerate(spin_matrices()):
            for r, (col, p) in enumerate(SPIN[s]):
                assert mat[r] == [_I_POW[p] if c == col else G_ZERO for c in range(4)]

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
        terms = series_sqrt_expand(CASE_II, 2, alg).terms
        got = OpExpr({key: c for key, c in terms.items() if all(s[0] == "pi" for s in key[0])})
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

    def test_inconsistent_system_solves_its_first_row_pair(self):
        """Rows in first-seen key order: pi1 (c1 = 1) with pi2 (c2 = 2), whatever the hash seed.

        The pi1 pi2 row asks c1 + c2 = 5, so the system is inconsistent,
        and other row orders give (3, 2) or (1, 4).
        """
        alg = Algebra(charged=False)
        p1, p2, p12 = alg.pi(1), alg.pi(2), alg.multiply(alg.pi(1), alg.pi(2))
        delta = [p1 + p2.scale(2) + p12.scale(5), OpExpr(), OpExpr()]
        d1 = [p1 + p12, OpExpr(), OpExpr()]
        d2 = [p2 + p12, OpExpr(), OpExpr()]
        ok, coeffs = identities._solve_defect_decomposition(delta, d1, d2)
        assert not ok
        assert coeffs == (Fraction(1), Fraction(2))


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
            # the Fraction shadow gives the same verdict, and the raw word the same
            # polynomials, the -(e/c) A term of each momentum included
            diff = raw - alg.canonicalize(raw)
            assert fraction_shadow_is_zero(diff, charged=True, trials=2, seed=trial)
            got, want = both_applications(raw, charged=True, seed=1000003 * trial)
            assert got == want and any(want), word

    def test_neutral_words_any_shape(self):
        rng = Random(56)
        alg = Algebra(charged=False)
        for trial in range(40):
            raw = alg.term(random_word(rng, max_len=5))
            assert shadow_equal(
                raw, alg.canonicalize(raw), charged=False, trials=2, seed=trial
            )

    def test_multiply_matches_operator_composition(self):
        """multiply(a, b) acts as (a after b) on wavefunctions, exactly.

        The state has degree 8, not random_state's 2, so that the up to four
        derivatives of a product leave most results nonzero (17 of the 20).
        """
        rng = Random(57)
        alg = Algebra(charged=False)
        nonzero = 0
        for trial in range(20):
            a = random_expr(rng, alg, nterms=2, max_len=2, allow_field=True)
            b = random_expr(rng, alg, nterms=2, max_len=2, allow_field=False)
            prod = alg.multiply(a, b)
            rep_rng = Random(9000 + trial)
            rep = ShadowRep(rep_rng, charged=False)
            psi = [_rand_poly(rep_rng, 8, 12) for _ in range(4)]
            direct = rep.apply(prod, psi)
            chained = rep.apply(a, rep.apply(b, psi))
            assert direct == chained
            nonzero += any(nums for _, nums in direct)
        assert nonzero >= 15

    def test_matchup_applications_match_the_fraction_shadow(self):
        """Every monomial of the raw and of the canonical residual in the 24 reps of criterion 7 at seed 7."""
        alg = Algebra(charged=True)
        raw, delta = identities._matchup_raw_delta(alg), identities._matchup_delta(alg)
        nonzero = 0
        for k in range(3):
            for t in range(8):
                for expr in (raw[k], delta[k]):
                    for key, c in expr.terms.items():
                        got, want = both_applications(OpExpr({key: c}), charged=False, seed=1000003 * (7 + k) + t)
                        assert got == want
                        nonzero += any(want)
        assert nonzero > 100

    @pytest.mark.parametrize("charged", [False, True])
    def test_random_expressions_match_the_fraction_shadow(self, charged):
        rng = Random(58)
        alg = Algebra(charged=charged)
        nonzero = 0
        for trial in range(20):
            expr = random_expr(rng, alg, nterms=3, max_len=2)
            got, want = both_applications(expr, charged, seed=9100 + trial)
            assert got == want
            nonzero += any(want)
        assert nonzero >= 10

    def test_matchup_verdicts_match_the_fraction_shadow(self):
        alg = Algebra(charged=True)
        raw, delta = identities._matchup_raw_delta(alg), identities._matchup_delta(alg)
        for seed in range(20):
            for k in range(3):
                for expr in (raw[k] - delta[k], raw[k] - delta[k] + alg.field("B", k + 1)):
                    verdict = shadow_is_zero(expr, charged=False, trials=2, seed=seed)
                    assert verdict == fraction_shadow_is_zero(expr, charged=False, trials=2, seed=seed)

    @pytest.mark.parametrize("charged", [False, True])
    def test_matchup_negative_controls(self, charged):
        """A residual missing its canonical side, or off by one B term, is not zero in criterion 7's
        8 reps at seeds 11 and 12345. (At seed 7 the neutral reps, and at the default seed the
        charged ones, all annihilate the first component's residual, a constant times B's Laplacian.)"""
        alg = Algebra(charged=True)
        raw, delta = identities._matchup_raw_delta(alg), identities._matchup_delta(alg)
        for seed in (11, 12345):
            for k in range(3):
                b = alg.field("B", k + 1)
                for expr in (raw[k], delta[k] + b, raw[k] - delta[k] + b):
                    assert not shadow_is_zero(expr, charged, trials=8, seed=seed + k)

    def test_omega_case_ii_raw_concatenation(self):
        """Omega^2 assembled without any canonicalization shadows equally."""
        alg = case_algebra(CASE_II)
        base = omega_base(CASE_II, alg)
        raw_terms = {}
        for (w1, s1, u1, i1), c1 in base.terms.items():
            for (w2, s2, u2, i2), c2 in base.terms.items():
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


@pytest.mark.parametrize(
    "order, memo_i, dropped_i, memo_ii, dropped_ii",
    [(4, 118, 2880, 352, 6090), (8, 718, 547200, 2152, 394380)],
)
def test_canonicalizer_work_pinned(order, memo_i, dropped_i, memo_ii, dropped_ii):
    """The memo size and truncation count of each case, exactly, with both residuals 0."""
    r = check_case_equality(order=order)
    assert r.passed
    assert r.value == {"case_i_residual_terms": 0, "case_ii_residual_terms": 0}
    assert r.detail == {
        "order": order,
        "case_i_memo_words": memo_i,
        "case_i_dropped_derivatives": dropped_i,
        "case_ii_memo_words": memo_ii,
        "case_ii_dropped_derivatives": dropped_ii,
    }


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
