"""Exact noncommutative algebra over momentum and field symbols.

Expressions are formal sums of monomials

    (rational) * i^p * hbar^a c^b m^c e^d mu'^f * word * (spin matrix)

where the word is built from kinetic-momentum symbols pi_1..pi_3 and at
most one electromagnetic field symbol (E or B component, carrying up to
two derivative indices). Products quadratic in the field strength are
unrepresentable: they are dropped on multiplication, which is exactly
the weak-field truncation all verified identities live in.

The spin slot is a 16-element basis rho_a (x) sigma_b of two commuting
Pauli triples: beta = rho_3, the block-off-diagonal vector alpha_i =
rho_1 sigma_i, and the block-diagonal spin vector rho_0 sigma_i. It
commutes with every word symbol.

Expression coefficients are Fraction. Normal ordering is direct: the
multiset Leibniz rule moves a field symbol to the front in one step, and
field-free words are sorted with their magnetic commutator words summed
in closed form. The word tables and products work on integer numerators.
No floating point enters anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Mapping

Units = tuple[int, int, int, int, int]  # powers of (hbar, c, m, e, mu')
ZERO_UNITS: Units = (0, 0, 0, 0, 0)

# word symbols: ('pi', i) with i in 1..3, or (base, i, derivs) with base
# in {'B','E'} and derivs a sorted tuple of direction indices (len <= 2)
PI = "pi"
# derivative indices a field symbol carries; the Leibniz rule drops the rest
MAX_DERIVS = 2

_EPS = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1,
}


def eps(i: int, j: int, k: int) -> int:
    return _EPS.get((i, j, k), 0)


def _pauli_mul(a: int, b: int) -> tuple[int, int, int]:
    """sigma_a sigma_b = sign * i^p * sigma_out, indices 0..3 with 0 = identity."""
    if a == 0:
        return b, 0, 1
    if b == 0:
        return a, 0, 1
    if a == b:
        return 0, 0, 1
    c = 6 - a - b
    return c, 1, eps(a, b, c)


def _build_spin_table() -> list[list[tuple[int, int, int]]]:
    table = []
    for s1 in range(16):
        row = []
        r1, p1 = divmod(s1, 4)
        for s2 in range(16):
            r2, p2 = divmod(s2, 4)
            r, ip_r, sg_r = _pauli_mul(r1, r2)
            p, ip_p, sg_p = _pauli_mul(p1, p2)
            row.append((4 * r + p, ip_r + ip_p, sg_r * sg_p))
        table.append(row)
    return table


SPIN_MUL = _build_spin_table()

SPIN_ID = 0
SPIN_BETA = 12  # rho_3 (x) identity


def spin_sigma(i: int) -> int:
    return i


def spin_alpha(i: int) -> int:
    return 4 + i


def _fold_i(p: int) -> tuple[int, int]:
    """Reduce a power of i to (power in {0,1}, sign)."""
    p %= 4
    return p % 2, (1 if p < 2 else -1)


def _is_trace_b(sym: tuple) -> bool:
    return sym[0] == "B" and sym[1] == 3 and 3 in sym[2]


def _trace_b_replacements(sym: tuple) -> tuple:
    """d3(..)B3 = -d1(..)B1 - d2(..)B2 from the solenoidal constraint."""
    rest = list(sym[2])
    rest.remove(3)
    return tuple(("B", c, tuple(sorted(rest + [c]))) for c in (1, 2))


def _front(sym: tuple, tail: tuple) -> tuple:
    """Word-table entries of the field sym in front of a sorted momentum tail."""
    if _is_trace_b(sym):
        # div B = 0 identically: the Jacobi identity of the pi's
        # demands it, and associativity of the rewriting with it.
        # The redundant component d3(..)B3 is eliminated.
        return tuple(((rep,) + tail, -1, 0, ZERO_UNITS) for rep in _trace_b_replacements(sym))
    return (((sym,) + tail, 1, 0, ZERO_UNITS),)


def word_field_count(word: tuple) -> int:
    return sum(1 for sym in word if sym[0] != PI)


def _pi_run(counts) -> tuple:
    """The sorted momentum word pi_1^n1 pi_2^n2 pi_3^n3."""
    return ((PI, 1),) * counts[1] + ((PI, 2),) * counts[2] + ((PI, 3),) * counts[3]


def _add_units(u: Units, v: Units) -> Units:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3], u[4] + v[4])


Key = tuple  # (word, spin, units, ipow)


class OpExpr:
    """Immutable formal sum; terms map (word, spin, units, ipow) -> Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Fraction] | None = None):
        self.terms = dict(terms) if terms else {}

    def __add__(self, other: "OpExpr") -> "OpExpr":
        return expr_sum((self, other))

    def __sub__(self, other: "OpExpr") -> "OpExpr":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "OpExpr":
        return self.scale(Fraction(-1))

    def scale(self, q: Fraction, units: Units = ZERO_UNITS, ipow: int = 0) -> "OpExpr":
        q = Fraction(q)
        den, terms = _integer_terms(self)
        out = {}
        for (word, spin, u, ip), n in terms:
            p = ip + ipow
            out[(word, spin, _add_units(u, units), p & 1)] = (-n if p & 2 else n) * q.numerator
        return _fraction_expr(out, den * q.denominator)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, OpExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def map_words(self, fn) -> "OpExpr":
        """Apply word -> Fraction-or-None filter/transform fn(word); drop None."""
        out = {}
        for (word, spin, u, ip), c in self.terms.items():
            w2 = fn(word)
            if w2 is None:
                continue
            k = (w2, spin, u, ip)
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return OpExpr(out)


def _integer_terms(expr: OpExpr) -> tuple[int, list]:
    """(common denominator d, [(key, numerator)]) with coefficient = numerator / d."""
    den = lcm(*(c.denominator for c in expr.terms.values()))
    return den, [(k, c.numerator * (den // c.denominator)) for k, c in expr.terms.items()]


def _fraction_expr(numerators: dict, den: int) -> OpExpr:
    """numerator / den per key, one Fraction per distinct numerator."""
    coeffs: dict = {}
    out = {}
    for k, n in numerators.items():
        if n:
            c = coeffs.get(n)
            if c is None:
                c = coeffs[n] = Fraction(n, den)
            out[k] = c
    return OpExpr(out)


def expr_sum(exprs: Iterable[OpExpr]) -> OpExpr:
    """Sum on integer numerators over the common denominator of all terms."""
    exprs = list(exprs)
    den = lcm(*(c.denominator for e in exprs for c in e.terms.values()))
    out: dict = {}
    for e in exprs:
        for k, c in e.terms.items():
            out[k] = out.get(k, 0) + c.numerator * (den // c.denominator)
    return _fraction_expr(out, den)


@dataclass
class Algebra:
    """Rewriting context: commutator rules, truncation bookkeeping, memo tables.

    charged=False turns off the momentum-momentum commutator (pi = p),
    which is the neutral-particle algebra. loose=True suppresses every
    commutator correction, giving the fully commuting (classical-symbol)
    image of an expression: the "equality up to ordering" comparisons
    are defined through it.
    """

    charged: bool = True
    loose: bool = False
    dropped_derivatives: int = 0
    _word_memo: dict = dc_field(default_factory=dict)
    _pi_even_memo: dict = dc_field(default_factory=dict)

    @property
    def memo_words(self) -> int:
        """Words in the normal-form memo: the canonicalizer's work count."""
        return len(self._word_memo)

    # -- expression constructors -------------------------------------------

    def term(
        self,
        word: tuple = (),
        spin: int = SPIN_ID,
        coeff: Fraction = Fraction(1),
        units: Units = ZERO_UNITS,
        ipow: int = 0,
    ) -> OpExpr:
        ip, sg = _fold_i(ipow)
        return OpExpr({(tuple(word), spin, tuple(units), ip): Fraction(coeff) * sg})

    def one(self) -> OpExpr:
        return self.term()

    def pi(self, i: int) -> OpExpr:
        return self.term(((PI, i),))

    def field(self, base: str, i: int, derivs: tuple = ()) -> OpExpr:
        if base not in ("B", "E"):
            raise ValueError(f"unknown field base {base!r}")
        # canonicalized so solenoidal-redundant B components never leak in
        return self.canonicalize(self.term(((base, i, tuple(sorted(derivs))),)))

    def sigma(self, i: int) -> OpExpr:
        return self.term((), spin=spin_sigma(i))

    def beta(self) -> OpExpr:
        return self.term((), spin=SPIN_BETA)

    def alpha(self, i: int) -> OpExpr:
        return self.term((), spin=spin_alpha(i))

    def pi_vec(self) -> tuple[OpExpr, OpExpr, OpExpr]:
        return self.pi(1), self.pi(2), self.pi(3)

    def field_vec(self, base: str) -> tuple[OpExpr, OpExpr, OpExpr]:
        return self.field(base, 1), self.field(base, 2), self.field(base, 3)

    def pi_squared(self) -> OpExpr:
        return expr_sum(self.multiply(self.pi(i), self.pi(i)) for i in (1, 2, 3))

    def div_e(self) -> OpExpr:
        return expr_sum(self.field("E", i, (i,)) for i in (1, 2, 3))

    # -- canonicalization ---------------------------------------------------

    def _canon_word(self, word: tuple) -> tuple:
        """Normal form of a single word.

        Returns a tuple of (word', coeff, ipow, units-delta) entries with
        an integer coeff and ipow in {0, 1}: the field symbol (if any)
        leftmost and the momentum tail sorted by component. The memo
        stores the number of derivative truncations incurred so the
        counter stays honest on cache hits.
        """
        if word and word[0][0] != PI:
            # Field in front: the momenta behind it commute (a commutator
            # would add a second field), so sorting them is the whole normal
            # form and the word is not memoised. Field symbols ('B', 'E')
            # sort before momenta ('pi'), so a second field would come first.
            tail = tuple(sorted(word[1:]))
            if tail and tail[0][0] != PI:
                return ()  # quadratic in the field: truncated away
            return _front(word[0], tail)
        cached = self._word_memo.get(word)
        if cached is not None:
            result, drops = cached
            self.dropped_derivatives += drops
            return result
        before = self.dropped_derivatives
        result = self._canon_word_uncached(word)
        self._word_memo[word] = (result, self.dropped_derivatives - before)
        return result

    def _canon_word_uncached(self, word: tuple) -> tuple:
        """Normal form of a field-free word, or of one with a momentum left of its field."""
        counts = [0, 0, 0, 0]  # pi_1..pi_3 at indices 1..3
        field = left = None
        for sym in word:
            if sym[0] == PI:
                counts[sym[1]] += 1
            elif field is None:
                field, left = sym, counts[:]
            else:
                return ()  # quadratic in the field: truncated away
        if field is None:
            if self.charged and not self.loose:
                return self._sort_charged(word, counts)
            # momenta commute: the normal form is the sorted word
            return ((_pi_run(counts), 1, 0, ZERO_UNITS),)
        return tuple(
            (w, c, g & 1, (g, 0, 0, 0, 0)) for w, c, g in self._leibniz(left, field, counts)
        )

    def _leibniz(self, left: list, sym: tuple, total: list) -> list:
        """Normal form of (momenta `left`) F (the other momenta of `total`).

        left and total count pi_1..pi_3 at indices 1..3. Pulling F through
        the left momenta, pi_j F = F pi_j - i hbar d_j F, gives the multiset
        Leibniz rule

            sum_g prod_j C(k_j, g_j) (-i hbar)^|g| (d^g F) pi^(total - g)

        truncated at |g| <= room, the derivative slots F has left. Returns
        (word, coeff, |g|) with the i-power and sign of (-i)^|g| folded
        into coeff. The truncated terms are the C(k, room + 1) single-step
        drops that one-swap-at-a-time rewriting counts, k = |left|.
        """
        base, comp, derivs = sym
        k1, k2, k3 = left[1], left[2], left[3]
        if self.loose:
            room = 0
        else:
            room = max(MAX_DERIVS - len(derivs), 0)
            self.dropped_derivatives += comb(k1 + k2 + k3, room + 1)
        out = []
        for g1 in range(min(k1, room) + 1):
            c1 = comb(k1, g1)
            for g2 in range(min(k2, room - g1) + 1):
                c2 = c1 * comb(k2, g2)
                for g3 in range(min(k3, room - g1 - g2) + 1):
                    g = g1 + g2 + g3
                    # (-i)^g = (-1)^g i^g and i^g = (-1)^(g // 2) i^(g % 2)
                    c = -c2 * comb(k3, g3) if (g + g // 2) & 1 else c2 * comb(k3, g3)
                    if g:
                        sym_g = (base, comp, tuple(sorted(derivs + (1,) * g1 + (2,) * g2 + (3,) * g3)))
                    else:
                        sym_g = sym
                    tail = _pi_run((0, total[1] - g1, total[2] - g2, total[3] - g3))
                    for w, sg, _, _ in _front(sym_g, tail):
                        out.append((w, c * sg, g))
        return out

    def _sort_charged(self, word: tuple, total: list) -> tuple:
        """Normal form of a field-free word with pi_i pi_j = pi_j pi_i + i (hbar e / c) eps_ijk B_k.

        Insertion sort, as rewriting the leftmost descent first does: each
        momentum pi_j passes the larger ones already placed, rightmost
        first, and each transposition adds its magnetic word, which the
        Leibniz rule normalizes. Passing the t-th pi_i from the right
        leaves left of B the placed momenta below i and all but t of the
        placed pi_i.
        """
        acc: dict = {(_pi_run(total), 0, ZERO_UNITS): 1}
        placed = [0, 0, 0, 0]
        for _, j in word:
            for i in range(3, j, -1):
                l = 6 - i - j
                sign = eps(i, j, l)
                rest = list(total)
                rest[i] -= 1
                rest[j] -= 1
                field = ("B", l, ())
                left = list(placed)
                left[i + 1 :] = [0] * (3 - i)
                for t in range(1, placed[i] + 1):
                    left[i] = placed[i] - t
                    for w, c, g in self._leibniz(left, field, rest):
                        # times i: i^(g % 2 + 1) folds to a sign when g is odd
                        key = (w, (g + 1) & 1, (g + 1, -1, 0, 1, 0))
                        acc[key] = acc.get(key, 0) + (-c * sign if g & 1 else c * sign)
            placed[j] += 1
        return tuple((w, c, ip, u) for (w, ip, u), c in acc.items() if c)

    def canonicalize(self, expr: OpExpr) -> OpExpr:
        den, terms = _integer_terms(expr)
        out: dict = {}
        for (word, spin, units, ipow), n in terms:
            for w, c, ip, du in self._canon_word(word):
                p = ipow + ip
                key = (w, spin, _add_units(units, du), p & 1)
                out[key] = out.get(key, 0) + (-n * c if p & 2 else n * c)
        return _fraction_expr(out, den)

    # -- products -----------------------------------------------------------

    def multiply(self, a: OpExpr, b: OpExpr) -> OpExpr:
        """Canonical a b, on integer numerators over each operand's common denominator."""
        den_a, terms_a = _integer_terms(a)
        den_b, terms_b = _integer_terms(b)
        # a field word of a pairs only with the field-free words of b:
        # quadratic terms in the field are truncated away
        free_b = [(key, n) for key, n in terms_b if not word_field_count(key[0])]
        out: dict = {}
        canon = self._canon_word
        for (w1, s1, u1, i1), n1 in terms_a:
            spin_row = SPIN_MUL[s1]
            for (w2, s2, u2, i2), n2 in free_b if word_field_count(w1) else terms_b:
                s3, ip_s, sg_s = spin_row[s2]
                base_units = _add_units(u1, u2)
                base_ip = i1 + i2 + ip_s
                cc = n1 * n2 * sg_s
                for w, c, ip, du in canon(w1 + w2):
                    p = base_ip + ip
                    key = (w, s3, _add_units(base_units, du), p & 1)
                    out[key] = out.get(key, 0) + (-cc * c if p & 2 else cc * c)
        return _fraction_expr(out, den_a * den_b)

    def product(self, *factors: OpExpr) -> OpExpr:
        if len(factors) < 2:
            return self.canonicalize(factors[0]) if factors else self.one()
        result = factors[0]
        for f in factors[1:]:
            result = self.multiply(result, f)
        return result

    def pi_even_power(self, l: int) -> OpExpr:
        """(pi^2)^l, memoized."""
        if l not in self._pi_even_memo:
            if l == 0:
                self._pi_even_memo[l] = self.one()
            else:
                self._pi_even_memo[l] = self.multiply(self.pi_even_power(l - 1), self.pi_squared())
        return self._pi_even_memo[l]

    # -- vector helpers -----------------------------------------------------

    def dot(self, a: tuple, b: tuple) -> OpExpr:
        return expr_sum(self.multiply(a[i], b[i]) for i in range(3))

    def cross(self, a: tuple, b: tuple) -> tuple:
        comps = []
        for k in (1, 2, 3):
            parts = []
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    e = eps(k, i, j)
                    if e:
                        parts.append(self.multiply(a[i - 1], b[j - 1]).scale(Fraction(e)))
            comps.append(expr_sum(parts))
        return tuple(comps)
