"""Exact noncommutative algebra over momentum and field symbols.

Expressions are formal sums of monomials

    (rational) * i^p * hbar^a c^b m^c e^d mu'^f * word * (spin matrix)

where the word is built from kinetic-momentum symbols pi_1..pi_3 and at
most one electromagnetic field symbol (E or B component 1-3, carrying up
to MAX_DERIVS = 2 derivative indices). Products quadratic in the field
strength are unrepresentable: they are dropped on multiplication, which
is exactly the weak-field truncation all verified identities live in.
`Algebra.field` and `Algebra.term` refuse any other symbol with a
ValueError that names it.

The spin slot is a 16-element basis rho_a (x) sigma_b of two commuting
Pauli triples: beta = rho_3, the block-off-diagonal vector alpha_i =
rho_1 sigma_i, and the block-diagonal spin vector rho_0 sigma_i. It
commutes with every word symbol.

Inside the algebra a word is a str of one character per symbol: the 60
field symbols from "0" on, in the order their tuples sort, then pi_1..pi_3
as "x", "y", "z". Field symbols sort first, as the tuples ('B', ...),
('E', ...) sort before ('pi', i), so concatenating, sorting and hashing
words is str work. An OpExpr holds integer numerators over one reduced
common denominator (`den`, `nums`), and every product, sum and rescaling
works on those integers. `OpExpr.terms`, built on first read, is the
public view {(word tuple, spin, units, ipow): Fraction}; `OpExpr(terms)`
and `Algebra.term` take tuple words.

Normal ordering is direct: the multiset Leibniz rule moves a field symbol
to the front in one step, and field-free words are sorted with their
magnetic commutator words summed in closed form. No floating point enters
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from typing import Iterable, Mapping

Units = tuple[int, int, int, int, int]  # powers of (hbar, c, m, e, mu')
ZERO_UNITS: Units = (0, 0, 0, 0, 0)

# word symbols: ('pi', i) with i in 1..3, or (base, i, derivs) with base
# in {'B','E'} and derivs a sorted tuple of direction indices (len <= 2)
PI = "pi"
# derivative indices a field symbol carries; the Leibniz rule drops the rest
MAX_DERIVS = 2

# the one-character codec: field symbols from "0" in tuple order, then the momenta
_FIELDS = sorted(
    (base, comp, derivs)
    for base in ("B", "E")
    for comp in (1, 2, 3)
    for n in range(MAX_DERIVS + 1)
    for derivs in combinations_with_replacement((1, 2, 3), n)
)
PIS = "xyz"
CODE = {sym: chr(ord("0") + k) for k, sym in enumerate(_FIELDS)}
CODE.update({(PI, i): PIS[i - 1] for i in (1, 2, 3)})
SYMBOL = {ch: sym for sym, ch in CODE.items()}

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


# div B = 0 identically (the Jacobi identity of the pi's demands it, and
# associativity of the rewriting with it), so the redundant component
# d3(..)B3 is eliminated: its character maps to those of -d1(..)B1 - d2(..)B2
TRACE_B = {CODE[sym]: tuple(map(CODE.get, _trace_b_replacements(sym))) for sym in _FIELDS if _is_trace_b(sym)}

# DERIV[f, j]: the character of d_j F for the field character f, None past MAX_DERIVS
DERIV = {(CODE[(b, c, d)], j): CODE.get((b, c, tuple(sorted(d + (j,))))) for b, c, d in _FIELDS for j in (1, 2, 3)}


def _code(sym) -> str:
    try:
        return CODE[sym]
    except (KeyError, TypeError):
        raise ValueError(
            f"symbol {sym!r} is outside the algebra: ('pi', 1..3), or ('B' or 'E', 1..3, "
            f"sorted derivative indices in 1..3, at most {MAX_DERIVS})"
        ) from None


def _pi_run(counts) -> str:
    """The sorted momentum word pi_1^n1 pi_2^n2 pi_3^n3."""
    return "x" * counts[1] + "y" * counts[2] + "z" * counts[3]


Key = tuple  # (word, spin, units, ipow)


class OpExpr:
    """Immutable formal sum: nums maps (str word, spin, units, ipow) to an
    integer numerator over den, and terms is the Fraction view of it."""

    __slots__ = ("den", "nums", "_terms")

    def __init__(self, terms: Mapping[Key, Fraction] | None = None):
        """From {(word tuple, spin, units, ipow): coefficient}."""
        terms = {
            ("".join(map(_code, w)), s, tuple(u), ip): Fraction(c)
            for (w, s, u, ip), c in (terms or {}).items()
        }
        self.den, self._terms = lcm(*(c.denominator for c in terms.values())), None
        self.nums = {k: c.numerator * (self.den // c.denominator) for k, c in terms.items() if c}

    @property
    def terms(self) -> dict:
        """{(word tuple, spin, units, ipow): Fraction}, built on first read."""
        if self._terms is None:
            den = self.den
            self._terms = {
                (tuple(map(SYMBOL.__getitem__, w)), s, u, ip): Fraction(n, den)
                for (w, s, u, ip), n in self.nums.items()
            }
        return self._terms

    def __add__(self, other: "OpExpr") -> "OpExpr":
        return expr_sum((self, other))

    def __sub__(self, other: "OpExpr") -> "OpExpr":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "OpExpr":
        return self.scale(Fraction(-1))

    def scale(self, q: Fraction, units: Units = ZERO_UNITS, ipow: int = 0) -> "OpExpr":
        q = Fraction(q)
        m = q.numerator
        v0, v1, v2, v3, v4 = units
        out = {}
        for (word, spin, u, ip), n in self.nums.items():
            p = ip + ipow
            key = (word, spin, (u[0] + v0, u[1] + v1, u[2] + v2, u[3] + v3, u[4] + v4), p & 1)
            out[key] = -n * m if p & 2 else n * m
        return _expr(self.den * q.denominator, out)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return isinstance(other, OpExpr) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __len__(self) -> int:
        return len(self.nums)


def _expr(den: int, nums: dict) -> OpExpr:
    """The expression nums / den, zero numerators dropped and the fraction reduced."""
    g = gcd(den, *nums.values())
    e = object.__new__(OpExpr)
    e.den, e._terms = den // g, None
    e.nums = {k: n // g for k, n in nums.items() if n} if g > 1 else {k: n for k, n in nums.items() if n}
    return e


def expr_sum(exprs: Iterable[OpExpr]) -> OpExpr:
    """Sum on integer numerators over the common denominator of all terms."""
    exprs = list(exprs)
    den = lcm(*(e.den for e in exprs))
    out: dict = {}
    for e in exprs:
        f = den // e.den
        for k, n in e.nums.items():
            out[k] = out.get(k, 0) + n * f
    return _expr(den, out)


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
        return OpExpr({(word, spin, units, ip): Fraction(coeff) * sg})

    def one(self) -> OpExpr:
        return self.term()

    def pi(self, i: int) -> OpExpr:
        return self.term(((PI, i),))

    def field(self, base: str, i: int, derivs: tuple = ()) -> OpExpr:
        # canonicalized so solenoidal-redundant B components never leak in
        return self.canonicalize(self.term(((base, i, tuple(sorted(derivs))),)))

    def sigma(self, i: int) -> OpExpr:
        # identity (x) sigma_i, the spin word 4 * 0 + i
        return self.term((), spin=i)

    def beta(self) -> OpExpr:
        return self.term((), spin=SPIN_BETA)

    def pi_vec(self) -> tuple[OpExpr, OpExpr, OpExpr]:
        return self.pi(1), self.pi(2), self.pi(3)

    def field_vec(self, base: str) -> tuple[OpExpr, OpExpr, OpExpr]:
        return self.field(base, 1), self.field(base, 2), self.field(base, 3)

    def pi_squared(self) -> OpExpr:
        return expr_sum(self.multiply(self.pi(i), self.pi(i)) for i in (1, 2, 3))

    def div_e(self) -> OpExpr:
        return expr_sum(self.field("E", i, (i,)) for i in (1, 2, 3))

    # -- canonicalization ---------------------------------------------------

    def _canon_word(self, word: str) -> tuple:
        """Normal form of a single str word.

        Returns a tuple of (word', coeff, ipow, units-delta) entries with
        an integer coeff and ipow in {0, 1}: the field symbol (if any)
        leftmost and the momentum tail sorted by component. The memo
        stores the number of derivative truncations incurred so the
        counter stays honest on cache hits.
        """
        if word and word[0] < "x":
            # Field in front: the momenta behind it commute (a commutator
            # would add a second field), so sorting them is the whole normal
            # form and the word is not memoised. Field characters sort
            # before momenta, so sorting the whole word keeps the field in
            # front, and a second field would come next.
            word = "".join(sorted(word))
            if len(word) > 1 and word[1] < "x":
                return ()  # quadratic in the field: truncated away
            reps = TRACE_B.get(word[0])
            if reps is None:
                return ((word, 1, 0, ZERO_UNITS),)
            return tuple((f + word[1:], -1, 0, ZERO_UNITS) for f in reps)
        cached = self._word_memo.get(word)
        if cached is not None:
            result, drops = cached
            if drops:
                self.dropped_derivatives += drops
            return result
        before = self.dropped_derivatives
        result = self._canon_word_uncached(word)
        self._word_memo[word] = (result, self.dropped_derivatives - before)
        return result

    def _canon_word_uncached(self, word: str) -> tuple:
        """Normal form of a field-free word, or of one with a momentum left of its field."""
        rest = word.lstrip(PIS)
        if rest[1:].strip(PIS):
            return ()  # quadratic in the field: truncated away
        left = word[: len(word) - len(rest)]
        counts = [0] + [word.count(p) for p in PIS]
        if not rest:
            if self.charged and not self.loose:
                return self._sort_charged(word, counts)
            # momenta commute: the normal form is the sorted word
            return ((_pi_run(counts), 1, 0, ZERO_UNITS),)
        return tuple(
            (w, c, g & 1, (g, 0, 0, 0, 0) if g else ZERO_UNITS)
            for w, c, g in self._leibniz(rest[0], [0] + [left.count(p) for p in PIS], counts)
        )

    def _leibniz(self, field: str, left: list, total: list, run: int = 0) -> list:
        """Normal form of (momenta `left`) F (the other momenta of `total`).

        left and total count pi_1..pi_3 at indices 1..3. Pulling F through
        the left momenta, pi_j F = F pi_j - i hbar d_j F, gives the multiset
        Leibniz rule

            sum_g prod_j C(k_j, g_j) (-i hbar)^|g| (d^g F) pi^(total - g)

        truncated at |g| <= room, the derivative slots F has left. Returns
        (word, coeff, |g|) with the i-power and sign of (-i)^|g| folded
        into coeff. The truncated terms are the C(k, room + 1) single-step
        drops that one-swap-at-a-time rewriting counts, k = |left|.

        run = i sums the P = left[i] expansions with left[i] = 0..P-1 in
        one: sum_{L<P} C(L, g) = C(P, g + 1), and the drops sum to
        C(P + K, room + 2) - C(K, room + 2), K the other left momenta.
        """
        room = 0 if self.loose else MAX_DERIVS - len(SYMBOL[field][2])
        k = left[1] + left[2] + left[3]
        rows = [[comb(n, g) for g in range(min(n, room) + 1)] for n in left]
        if run:
            P = left[run]
            rows[run] = [comb(P, g + 1) for g in range(min(P - 1, room) + 1)]
            drops = comb(k, room + 2) - comb(k - P, room + 2)
        else:
            drops = comb(k, room + 1)
        if not self.loose:
            self.dropped_derivatives += drops
        out = []
        f1, n1, n2, n3 = field, total[1], total[2], total[3]
        for g1, c1 in enumerate(rows[1]):
            f2 = f1
            for g2, c2 in enumerate(rows[2][: room - g1 + 1]):
                c2 *= c1
                f3 = f2
                for g3, c3 in enumerate(rows[3][: room - g1 - g2 + 1]):
                    g = g1 + g2 + g3
                    # (-i)^g = (-1)^g i^g and i^g = (-1)^(g // 2) i^(g % 2)
                    c = -c2 * c3 if (g + g // 2) & 1 else c2 * c3
                    tail = "x" * (n1 - g1) + "y" * (n2 - g2) + "z" * (n3 - g3)
                    reps = TRACE_B.get(f3)
                    if reps is None:
                        out.append((f3 + tail, c, g))
                    else:
                        out.extend((f + tail, -c, g) for f in reps)
                    f3 = DERIV.get((f3, 3))
                f2 = DERIV.get((f2, 2))
            f1 = DERIV.get((f1, 1))
        return out

    def _sort_charged(self, word: str, total: list) -> tuple:
        """Normal form of a field-free word with pi_i pi_j = pi_j pi_i + i (hbar e / c) eps_ijk B_k.

        Insertion sort, as rewriting the leftmost descent first does: each
        momentum pi_j passes the larger ones already placed, rightmost
        first, and each transposition adds its magnetic word, which the
        Leibniz rule normalizes. Passing the t-th pi_i from the right
        leaves left of B the placed momenta below i and all but t of the
        placed pi_i, so the run of placed pi_i is one Leibniz run.
        """
        acc: dict = {(_pi_run(total), 0, ZERO_UNITS): 1}
        placed = [0, 0, 0, 0]
        for ch in word:
            j = PIS.index(ch) + 1
            for i in range(3, j, -1):
                if not placed[i]:
                    continue
                l = 6 - i - j
                sign = eps(i, j, l)
                rest = list(total)
                rest[i] -= 1
                rest[j] -= 1
                for w, c, g in self._leibniz(CODE[("B", l, ())], placed[: i + 1] + [0] * (3 - i), rest, run=i):
                    # times i: i^(g % 2 + 1) folds to a sign when g is odd
                    key = (w, (g + 1) & 1, (g + 1, -1, 0, 1, 0))
                    acc[key] = acc.get(key, 0) + (-c * sign if g & 1 else c * sign)
            placed[j] += 1
        return tuple((w, c, ip, u) for (w, ip, u), c in acc.items() if c)

    def canonicalize(self, expr: OpExpr) -> OpExpr:
        out: dict = {}
        canon = self._canon_word
        for (word, spin, (u0, u1, u2, u3, u4), ipow), n in expr.nums.items():
            for w, c, ip, du in canon(word):
                p = ipow + ip
                key = (w, spin, (u0 + du[0], u1 + du[1], u2 + du[2], u3 + du[3], u4 + du[4]), p & 1)
                out[key] = out.get(key, 0) + (-n * c if p & 2 else n * c)
        return _expr(expr.den, out)

    # -- products -----------------------------------------------------------

    def multiply(self, a: OpExpr, b: OpExpr) -> OpExpr:
        """Canonical a b: the products of numerators over den_a den_b."""
        terms_b = list(b.nums.items())
        # a field word of a pairs only with the field-free words of b:
        # quadratic terms in the field are truncated away
        free_b = [t for t in terms_b if not t[0][0].strip(PIS)]
        out: dict = {}
        canon = self._canon_word
        for (w1, s1, (a0, a1, a2, a3, a4), i1), n1 in a.nums.items():
            spin_row = SPIN_MUL[s1]
            for (w2, s2, (b0, b1, b2, b3, b4), i2), n2 in free_b if w1.strip(PIS) else terms_b:
                s3, ip_s, sg_s = spin_row[s2]
                b0, b1, b2, b3, b4 = a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4
                base_ip = i1 + i2 + ip_s
                cc = n1 * n2 * sg_s
                for w, c, ip, du in canon(w1 + w2):
                    p = base_ip + ip
                    if du is ZERO_UNITS:  # the entries that keep the units
                        key = (w, s3, (b0, b1, b2, b3, b4), p & 1)
                    else:
                        key = (w, s3, (b0 + du[0], b1 + du[1], b2 + du[2], b3 + du[3], b4 + du[4]), p & 1)
                    out[key] = out.get(key, 0) + (-cc * c if p & 2 else cc * c)
        return _expr(a.den * b.den, out)

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
