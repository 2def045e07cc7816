"""Exact operator representation for cross-checking symbolic results.

Symbols are instantiated on 4-spinor wavefunctions with polynomial
components over the Gaussian rationals, each stored as one integer
denominator over Gaussian-integer numerators: pi_i acts as
-i hbar d_i - (e/c) A_i with a cubic vector potential, field symbols
multiply by quadratic polynomial jets, and the spin slot rho_a (x) sigma_b
is a signed permutation of the four components. Every action closes on
polynomials, so "the expression annihilates random states" is decided
exactly, on integers, with no tolerance.

Quadratic jets have vanishing third derivatives, which makes the algebra's
derivative-order truncation invisible here: identities that canonicalized
through a dropped third-order correction still evaluate to exactly zero.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from random import Random

from .core import PI, SYMBOL, OpExpr

# a polynomial (den, {(a, b, c): (re, im)}) is the sum of (re + i im) / den x^a y^b z^c,
# zero numerators dropped and the fraction reduced, so equal polynomials compare equal

_I_POW = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _poly(den: int, nums: dict) -> tuple:
    """The polynomial nums / den, zero numerators dropped and the fraction reduced."""
    nums = {k: v for k, v in nums.items() if v[0] or v[1]}
    g = gcd(den, *chain.from_iterable(nums.values()))
    if g > 1:
        nums = {k: (re // g, im // g) for k, (re, im) in nums.items()}
    return den // g, nums


def p_add(a: tuple, b: tuple) -> tuple:
    den = lcm(a[0], b[0])
    fa, fb = den // a[0], den // b[0]
    out = {k: (re * fa, im * fa) for k, (re, im) in a[1].items()}
    for k, (re, im) in b[1].items():
        r0, i0 = out.get(k, (0, 0))
        out[k] = (r0 + re * fb, i0 + im * fb)
    return _poly(den, out)


def p_scale(p: tuple, g: tuple, den: int = 1) -> tuple:
    """(g / den) p for a Gaussian integer g."""
    gr, gi = g
    return _poly(p[0] * den, {k: (gr * re - gi * im, gr * im + gi * re) for k, (re, im) in p[1].items()})


def p_mul(a: tuple, b: tuple) -> tuple:
    out: dict = {}
    for (a0, a1, a2), (ar, ai) in a[1].items():
        for (b0, b1, b2), (br, bi) in b[1].items():
            k = (a0 + b0, a1 + b1, a2 + b2)
            r0, i0 = out.get(k, (0, 0))
            out[k] = (r0 + ar * br - ai * bi, i0 + ar * bi + ai * br)
    return _poly(a[0] * b[0], out)


def p_diff(p: tuple, axis: int, g: tuple = (1, 0), den: int = 1) -> tuple:
    """(g / den) d_axis p for a Gaussian integer g."""
    gr, gi = g
    out = {}
    for k, (re, im) in p[1].items():
        n = k[axis]
        if n:
            out[k[:axis] + (n - 1,) + k[axis + 1 :]] = (n * (gr * re - gi * im), n * (gr * im + gi * re))
    return _poly(p[0] * den, out)


def _spin_table() -> list[list[tuple[int, int]]]:
    """SPIN[4a + b][r] = (column, power of i) of the one entry in row r of rho_a (x) sigma_b."""
    # sigma_0..sigma_3 as (columns of rows 0 and 1, powers of i there): sigma_2 = [[0, -i], [i, 0]]
    pauli = (((0, 1), (0, 0)), ((1, 0), (0, 0)), ((1, 0), (3, 1)), ((0, 1), (0, 2)))
    return [
        [(2 * ca[r1] + cb[r2], (pa[r1] + pb[r2]) % 4) for r1 in (0, 1) for r2 in (0, 1)]
        for ca, pa in pauli
        for cb, pb in pauli
    ]


SPIN = _spin_table()


def _rand_frac(rng: Random, lo: int = -3, hi: int = 3) -> tuple[int, int]:
    """(numerator, denominator) with the denominator in 1..3."""
    num = rng.randint(lo, hi)
    return num, rng.randint(1, 3)


def _rand_poly(rng: Random, degree: int, nterms: int) -> tuple:
    """1 plus up to nterms random real monomials of total degree <= degree, over 6."""
    out = {(0, 0, 0): 6}
    for _ in range(nterms):
        k = tuple(rng.randint(0, degree) for _ in range(3))
        if sum(k) > degree:
            continue
        num, den = _rand_frac(rng)
        out[k] = out.get(k, 0) + num * (6 // den)
    return _poly(6, {k: (v, 0) for k, v in out.items()})


class ShadowRep:
    """One random instantiation of every symbol as an exact operator."""

    def __init__(self, rng: Random, charged: bool):
        self.hbar = _rand_frac(rng, 1, 4)
        c = _rand_frac(rng, 1, 4)
        m = _rand_frac(rng, 1, 4)
        e = _rand_frac(rng, 1, 4) if charged else (0, 1)
        self.units = (self.hbar, c, m, e, _rand_frac(rng, 1, 4))  # (hbar, c, m, e, mu')
        # B = curl A: keeps the momentum commutator exact in the charged
        # rep and realizes div B = 0, which the symbol algebra imposes
        A = [_rand_poly(rng, 3, 5) for _ in range(3)]
        self.jets: dict = {}
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            self.jets[("B", i + 1)] = p_add(p_diff(A[k], j), p_diff(A[j], k, (-1, 0)))
        for i in (1, 2, 3):
            self.jets[("E", i)] = _rand_poly(rng, 2, 5)
        # -(e/c) A_i, the potential term of pi_i
        self.potential = [p_scale(a, (-e[0] * c[1], 0), e[1] * c[0]) for a in A] if charged else None
        self.fields: dict = {}  # field character -> its polynomial, derivatives taken

    def _unit_value(self, units: tuple) -> tuple[int, int]:
        """hbar^a c^b m^c e^d mu'^f as (numerator, denominator)."""
        num = den = 1
        for (vn, vd), k in zip(self.units, units):
            if k > 0:
                num, den = num * vn**k, den * vd**k
            elif k < 0:
                num, den = num * vd**-k, den * vn**-k
        return num, den

    def _act(self, word: str, acts: dict) -> list:
        """The 4-spinor acts[""] after the word, right to left, memoised in acts by suffix."""
        out = acts.get(word)
        if out is not None:
            return out
        state = self._act(word[1:], acts)
        sym = SYMBOL[word[0]]
        if sym[0] == PI:
            ax = sym[1] - 1
            mih = (0, -self.hbar[0])  # -i hbar, over hbar's denominator
            out = [p_diff(comp, ax, mih, self.hbar[1]) for comp in state]
            if self.potential:
                out = [p_add(r, p_mul(self.potential[ax], comp)) for r, comp in zip(out, state)]
        else:
            f = self.fields.get(word[0])
            if f is None:
                f = self.jets[sym[:2]]
                for ax in sym[2]:
                    f = p_diff(f, ax - 1)
                self.fields[word[0]] = f
            out = [p_mul(f, comp) for comp in state]
        acts[word] = out
        return out

    def apply(self, expr: OpExpr, state: list) -> list:
        """expr acting on a 4-spinor of polynomials."""
        values = {u: self._unit_value(u) for _, _, u, _ in expr.nums}
        uden = lcm(*(d for _, d in values.values()))
        acts = {"": state}
        rows: list = [[], [], [], []]  # per output row, (Gaussian-integer coefficient, polynomial) pairs
        for (word, spin, units, ipow), n in expr.nums.items():
            un, ud = values[units]
            c = n * un * (uden // ud)  # over expr.den * uden
            if c:
                ws = self._act(word, acts)
                for r, (col, p) in enumerate(SPIN[spin]):
                    re, im = _I_POW[(ipow + p) % 4]
                    rows[r].append(((c * re, c * im), ws[col]))
        out = []
        for parts in rows:
            den = lcm(*(p[0] for _, p in parts))
            acc: dict = {}
            for (gr, gi), (d, nums) in parts:
                f = den // d
                gr, gi = gr * f, gi * f
                for k, (re, im) in nums.items():
                    x, y = acc.get(k, (0, 0))
                    acc[k] = (x + gr * re - gi * im, y + gr * im + gi * re)
            out.append(_poly(den * expr.den * uden, acc))
        return out


def random_state(rng: Random) -> list:
    return [_rand_poly(rng, 2, 4) for _ in range(4)]


def shadow_is_zero(
    expr: OpExpr, charged: bool, trials: int = 4, seed: int = 0
) -> bool:
    """Exact annihilation of random polynomial states in random reps."""
    for t in range(trials):
        rng = Random(1000003 * seed + t)
        rep = ShadowRep(rng, charged)
        result = rep.apply(expr, random_state(rng))
        if any(nums for _, nums in result):
            return False
    return True


def shadow_equal(
    a: OpExpr, b: OpExpr, charged: bool, trials: int = 4, seed: int = 0
) -> bool:
    return shadow_is_zero(a - b, charged=charged, trials=trials, seed=seed)
