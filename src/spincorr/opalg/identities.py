"""Operator identities behind the square-root Hamiltonian expansion.

Everything here is exact: binomial coefficients are Fractions and every
comparison is canonical-form equality in the truncated algebra. The two
special cases are

    I   charged particle, pure magnetic moment e hbar / 2mc (g = 2),
        Omega = pi^2 - (e hbar / c) sigma.B
    II  neutral particle, anomalous moment mu', electric field,
        Omega = p^2 - (mu' hbar / c) beta (div E) + (2 mu'/c) beta sigma.(p x E)-sym

and the verified claim is that beta mc^2 sqrt(1 + Omega/m^2c^2), expanded
as a binomial series, reassembles into kinetic terms plus Weyl-ordered
moment couplings with 1/gamma coefficient streams.

Both sides cost O(N) products at order N: the series is the literal chain
P_n = P_{n-1} Omega from P_0 = beta, and the closed form takes every Weyl
sum it needs from one recurrence per field operand (weyl_orders).
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    PI,
    Algebra,
    OpExpr,
    Units,
    eps,
    expr_sum,
    word_field_count,
)


class MalformedOperandError(ValueError):
    """Operand violates a structural precondition (e.g. field count)."""


# -- exact coefficient streams ----------------------------------------------


def binom_half(n: int) -> Fraction:
    """C(1/2, n), the Taylor coefficients of sqrt(1 + u)."""
    out = Fraction(1)
    for k in range(n):
        out *= (Fraction(1, 2) - k) / (k + 1)
    return out


def binom_minus_half(n: int) -> Fraction:
    """C(-1/2, n), the Taylor coefficients of 1/sqrt(1 + u)."""
    out = Fraction(1)
    for k in range(n):
        out *= (Fraction(-1, 2) - k) / (k + 1)
    return out


# -- symmetrized building blocks --------------------------------------------


def _as_field_vec(alg: Algebra, F) -> tuple:
    if isinstance(F, str):
        return alg.field_vec(F)
    return tuple(F)


def weyl_orders(alg: Algebra, X: OpExpr, N: int) -> list[OpExpr]:
    """[(X pi^{2k})_Weyl for k < N] by one recurrence in O(N) products.

    (X pi^{2k})_Weyl = W_k / (k+1) with W_k = sum_{l<=k} pi^{2l} X pi^{2k-2l},
    and the sums obey

        W_0 = X,   W_k = W_{k-1} pi^2 + pi^{2k} X.

    pi^{2l} means the operator power (pi^2)^l, so in the charged algebra
    the summands already contain the magnetic commutator corrections.
    pi^2 multiplies on the right: every word of W has its field symbol in
    front, so the product only sorts the momenta behind it, with nothing
    memoised and nothing truncated. The left product pi^{2k} X is made
    once per k. (Multiplying pi^2 on the left gives the same expression,
    but normal-orders every momentum run left of the field and grows the
    memo several times over.)
    """
    if N < 0:
        raise MalformedOperandError("Weyl order count requires N >= 0")
    for (word, _, _, _) in X.terms:
        if word_field_count(word) != 1:
            raise MalformedOperandError(
                "Weyl ordering operand must carry exactly one field symbol per monomial"
            )
    pi2 = alg.pi_squared()
    out = []
    W = alg.canonicalize(X)
    for k in range(N):
        if k:
            W = alg.multiply(W, pi2) + alg.multiply(alg.pi_even_power(k), X)
        out.append(W.scale(Fraction(1, k + 1)))
    return out


def weyl_order(alg: Algebra, X: OpExpr, n: int) -> OpExpr:
    """(X pi^{2n})_Weyl = (1/(n+1)) sum_l pi^{2l} X pi^{2n-2l}: the last of weyl_orders."""
    if n < 0:
        raise MalformedOperandError("Weyl order requires n >= 0")
    return weyl_orders(alg, X, n + 1)[-1]


def sym_dot_pipi(alg: Algebra, F) -> tuple:
    """Components of (1/4)[(pi.F + F.pi) pi + pi (pi.F + F.pi)]."""
    Fv = _as_field_vec(alg, F)
    p = alg.pi_vec()
    s = expr_sum(alg.multiply(p[i], Fv[i]) for i in range(3)) + expr_sum(
        alg.multiply(Fv[i], p[i]) for i in range(3)
    )
    return tuple(
        (alg.multiply(s, p[i]) + alg.multiply(p[i], s)).scale(Fraction(1, 4))
        for i in range(3)
    )


def sym_cross(alg: Algebra, F) -> tuple:
    """Components of (1/2)(pi x F - F x pi)."""
    Fv = _as_field_vec(alg, F)
    p = alg.pi_vec()
    a = alg.cross(p, Fv)
    b = alg.cross(Fv, p)
    return tuple((a[i] - b[i]).scale(Fraction(1, 2)) for i in range(3))


# -- the two special-case expansions -----------------------------------------

CASE_I = "I"
CASE_II = "II"


def case_algebra(case: str) -> Algebra:
    if case == CASE_I:
        return Algebra(charged=True)
    if case == CASE_II:
        return Algebra(charged=False)
    raise MalformedOperandError(f"unknown case {case!r}")


def _field_part(case: str, alg: Algebra) -> OpExpr:
    """X in Omega = pi^2 - X."""
    if case == CASE_I:
        # (e hbar / c) sigma.B
        return expr_sum(
            alg.multiply(alg.sigma(k), alg.field("B", k)) for k in (1, 2, 3)
        ).scale(Fraction(1), units=(1, -1, 0, 1, 0))
    bar = sym_cross(alg, "E")
    beta_sigma = [alg.multiply(alg.beta(), alg.sigma(k)) for k in (1, 2, 3)]
    div_term = alg.multiply(alg.beta(), alg.div_e()).scale(
        Fraction(1), units=(1, -1, 0, 0, 1)
    )
    so_term = expr_sum(
        alg.multiply(beta_sigma[k - 1], bar[k - 1]) for k in (1, 2, 3)
    ).scale(Fraction(-2), units=(0, -1, 0, 0, 1))
    return div_term + so_term


def omega_base(case: str, alg: Algebra) -> OpExpr:
    return alg.pi_squared() - _field_part(case, alg)


def series_sqrt_expand(case: str, N: int, alg: Algebra | None = None) -> OpExpr:
    """beta mc^2 sum_{n<=N} C(1/2,n) (Omega/m^2c^2)^n, fully canonicalized."""
    if N < 0:
        raise MalformedOperandError("series order must be >= 0")
    alg = alg or case_algebra(case)
    base = omega_base(case, alg)
    # beta rides in the chain: P_0 = beta, P_n = P_{n-1} Omega = beta Omega^n
    power = alg.beta()
    parts = []
    for n in range(N + 1):
        if n:
            power = alg.multiply(power, base)
        u: Units = (0, 2 - 2 * n, 1 - 2 * n, 0, 0)
        parts.append(power.scale(binom_half(n), units=u))
    return expr_sum(parts)


def claimed_expansion(case: str, N: int, alg: Algebra | None = None) -> OpExpr:
    """The closed Weyl-ordered form, expanded to the same order.

    Case I:  beta [ kinetic series - (e hbar / 2mc)(sigma.B / gamma)_W ]
    Case II: beta kinetic series + (mu'/mc)(sigma.(p x E)-sym / gamma)_W
             - (mu' hbar / 2mc)((div E)/gamma)_W
    where (Y/gamma)_W means sum_k C(-1/2,k) (Y pi^{2k})_W / (m c)^{2k}.
    """
    alg = alg or case_algebra(case)
    beta = alg.beta()
    parts = []
    for n in range(N + 1):
        u: Units = (0, 2 - 2 * n, 1 - 2 * n, 0, 0)
        parts.append(
            alg.multiply(beta, alg.pi_even_power(n)).scale(binom_half(n), units=u)
        )
    if case == CASE_I:
        X = expr_sum(
            alg.multiply(alg.multiply(beta, alg.sigma(k)), alg.field("B", k))
            for k in (1, 2, 3)
        )
        for k, w in enumerate(weyl_orders(alg, X, N)):
            u = (1, -1 - 2 * k, -1 - 2 * k, 1, 0)
            parts.append(w.scale(-binom_minus_half(k) / 2, units=u))
    else:
        bar = sym_cross(alg, "E")
        so = expr_sum(alg.multiply(alg.sigma(k), bar[k - 1]) for k in (1, 2, 3))
        dv = alg.div_e()
        for k, (w_so, w_dv) in enumerate(zip(weyl_orders(alg, so, N), weyl_orders(alg, dv, N))):
            mu_units: Units = (0, -1 - 2 * k, -1 - 2 * k, 0, 1)
            parts.append(w_so.scale(binom_minus_half(k), units=mu_units))
            dar_units: Units = (1, -1 - 2 * k, -1 - 2 * k, 0, 1)
            parts.append(w_dv.scale(-binom_minus_half(k) / 2, units=dar_units))
    return expr_sum(parts)


def verify_case(case: str, N: int, alg: Algebra | None = None) -> tuple[bool, OpExpr]:
    """Compare the brute-force square-root series against the closed form.

    Returns (identically zero?, discrepancy). The cancellation rests on
    (k+1) C(1/2, k+1) = (1/2) C(-1/2, k) applied under the Weyl ordering,
    so a zero discrepancy certifies both the coefficient stream and the
    ordering bookkeeping.
    """
    alg = alg or case_algebra(case)
    diff = series_sqrt_expand(case, N, alg) - claimed_expansion(case, N, alg)
    return diff.is_zero(), diff


# -- ordering match-up for the magnetic moment term ---------------------------


def _matchup_delta(alg: Algebra) -> list[OpExpr]:
    """LHS - RHS of the double-cross identity, per component.

    LHS_i = (pi x (pi x B)-sym)-sym_i, RHS_i = sym_dot_pipi(B)_i - (B_i pi^2)_W.
    """
    inner = sym_cross(alg, "B")
    lhs = sym_cross(alg, inner)
    dot = sym_dot_pipi(alg, "B")
    out = []
    for i in (1, 2, 3):
        pi2b = weyl_order(alg, alg.field("B", i), 1)
        out.append(lhs[i - 1] - dot[i - 1] + pi2b)
    return out


# 4 (pi x (pi x B)-sym)-sym_i = sum over j of these seven words, by the
# epsilon contraction; each symbol is (base, "i" or "j") for pi_i, B_j, ...
_DOUBLE_CROSS = (
    (((PI, "j"), (PI, "i"), ("B", "j")), 1),
    (((PI, "j"), (PI, "j"), ("B", "i")), -1),
    (((PI, "j"), ("B", "i"), (PI, "j")), -2),
    (((PI, "j"), ("B", "j"), (PI, "i")), 1),
    (((PI, "i"), ("B", "j"), (PI, "j")), 1),
    ((("B", "j"), (PI, "i"), (PI, "j")), 1),
    ((("B", "i"), (PI, "j"), (PI, "j")), -1),
)


def _double_cross_words(i: int):
    """(raw word, coefficient) of 4 (pi x (pi x B)-sym)-sym_i, from _DOUBLE_CROSS."""
    for j in (1, 2, 3):
        comp = {"i": i, "j": j}
        for word, coeff in _DOUBLE_CROSS:
            yield tuple((b, comp[k]) if b == PI else (b, comp[k], ()) for b, k in word), coeff


def _epsilon_expansion_check(alg: Algebra) -> bool:
    """4 (pi x (pi x B)-sym)-sym_i against its canonicalized index expansion."""
    lhs = sym_cross(alg, sym_cross(alg, "B"))
    for i in (1, 2, 3):
        raw = expr_sum(alg.term(word, coeff=c) for word, c in _double_cross_words(i))
        if not (alg.canonicalize(raw) - lhs[i - 1].scale(Fraction(4))).is_zero():
            return False
    return True


def _matchup_raw_delta(alg: Algebra) -> list[OpExpr]:
    """The same difference assembled from raw, uncanonicalized words.

    Uses the epsilon-contraction expansion of the double cross product
    (_DOUBLE_CROSS, times 1/4), the four summands of the quadruple
    symmetrization, and the two Weyl placements, all as literal word
    tuples. Feeding this to the shadow representation checks the whole
    canonicalization end to end.
    """

    def p(j):
        return (PI, j)

    def B(j):
        return ("B", j, ())

    q = Fraction(1, 4)
    out = []
    for i in (1, 2, 3):
        parts = [alg.term(word, coeff=q * c) for word, c in _double_cross_words(i)]
        for j in (1, 2, 3):
            parts.append(alg.term((p(j), B(j), p(i)), coeff=-q))
            parts.append(alg.term((B(j), p(j), p(i)), coeff=-q))
            parts.append(alg.term((p(i), p(j), B(j)), coeff=-q))
            parts.append(alg.term((p(i), B(j), p(j)), coeff=-q))
            parts.append(alg.term((p(j), p(j), B(i)), coeff=Fraction(1, 2)))
            parts.append(alg.term((B(i), p(j), p(j)), coeff=Fraction(1, 2)))
        out.append(expr_sum(parts))
    return out


def _homogeneous_part(expr: OpExpr) -> OpExpr:
    """Monomials whose field symbol carries no derivative indices."""
    def keep(word):
        for sym in word:
            if sym[0] != "pi" and sym[2]:
                return None
        return word

    return expr.map_words(keep)


def _solve_defect_decomposition(
    delta: list[OpExpr], d1: list[OpExpr], d2: list[OpExpr]
) -> tuple[bool, tuple[Fraction, Fraction]]:
    """Exact solve of delta = c1 d1 + c2 d2 componentwise, over Fractions."""
    rows = []
    for comp in range(3):
        keys = set(delta[comp].terms) | set(d1[comp].terms) | set(d2[comp].terms)
        for k in keys:
            rows.append(
                (
                    d1[comp].terms.get(k, Fraction(0)),
                    d2[comp].terms.get(k, Fraction(0)),
                    delta[comp].terms.get(k, Fraction(0)),
                )
            )
    c1 = c2 = Fraction(0)
    for a1, a2, b1 in rows:
        for b2row in rows:
            det = a1 * b2row[1] - a2 * b2row[0]
            if det:
                c1 = (b1 * b2row[1] - a2 * b2row[2]) / det
                c2 = (a1 * b2row[2] - b1 * b2row[0]) / det
                break
        else:
            continue
        break
    ok = all(a1 * c1 + a2 * c2 == b for a1, a2, b in rows)
    return ok, (c1, c2)


def matchup_report(trials: int, seed: int) -> dict:
    """Prove the double-cross ordering identity and report each sub-check.

    The strict residual is decomposed against the two independent ways of
    reordering B_i against pi^2 (middle insertion and full commutation),
    which is exactly the "equal up to ordering over powers of pi^2"
    relation; its field-derivative-free part must vanish on the nose.
    That part is returned per component as "homogeneous_residual", so a
    failing report can show its leading terms.
    """
    alg = Algebra(charged=True)
    delta = _matchup_delta(alg)

    loose = Algebra(charged=True, loose=True)
    commuting_ok = all(d.is_zero() for d in _matchup_delta(loose))

    homogeneous = [_homogeneous_part(d) for d in delta]
    homogeneous_ok = all(h.is_zero() for h in homogeneous)

    p = alg.pi_vec()
    d1, d2 = [], []
    for i in (1, 2, 3):
        bi = alg.field("B", i)
        mid = expr_sum(alg.product(p[j - 1], bi, p[j - 1]) for j in (1, 2, 3))
        right = alg.multiply(bi, alg.pi_squared())
        left = alg.multiply(alg.pi_squared(), bi)
        d1.append(mid - right)
        d2.append(left - right)
    decomposed, coeffs = _solve_defect_decomposition(delta, d1, d2)

    eps_ok = _epsilon_expansion_check(alg)

    # The raw-word assembly must reproduce the canonical residual exactly
    # as an operator. Momenta commute in the representation (the identity
    # is field-linear, so its charged content is truncated anyway), which
    # keeps every rewrite step exact.
    from .shadow import shadow_equal

    raw = _matchup_raw_delta(alg)
    shadow_ok = all(
        shadow_equal(raw[k], delta[k], charged=False, trials=trials, seed=seed + k)
        for k in range(3)
    )

    ok = commuting_ok and homogeneous_ok and decomposed and eps_ok and shadow_ok
    return {
        "ok": ok,
        "commuting_identity": commuting_ok,
        "homogeneous_exact": homogeneous_ok,
        "epsilon_expansion": eps_ok,
        "defect_decomposition": decomposed,
        "defect_coefficients": coeffs,
        "shadow_zero": shadow_ok,
        "residual_terms": sum(len(d) for d in delta),
        "homogeneous_residual": homogeneous,
    }
