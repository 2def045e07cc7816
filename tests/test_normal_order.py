"""Direct normal ordering against the one-swap-at-a-time rewriting it replaced.

`SwapRewriting` is the earlier canonicalizer of `Algebra`, kept here as the
slow independent oracle: it moves a field symbol left one momentum at a
time (pi_i F = F pi_i - i hbar d_i F) and sorts field-free words by single
transpositions (pi_i pi_j = pi_j pi_i + i (hbar e / c) eps_ijk B_k),
recursing into and memoising every intermediate word. `normalize_random`
is the confluence oracle: the same single steps in random order, with no
memo; `test_opalg.py` uses it too.

The per-l Weyl sums are kept the same way: `weyl_order_per_l` and
`claimed_expansion_per_l` rebuild (X pi^{2k})_W from its k+1 placements
for every k, as the closed form did before the recurrence of
`weyl_orders` replaced them.
"""

from fractions import Fraction
from itertools import product
from math import comb
from random import Random

import pytest

from spincorr.opalg import (
    CASE_I,
    CASE_II,
    Algebra,
    binom_half,
    binom_minus_half,
    case_algebra,
    claimed_expansion,
    expr_sum,
    series_sqrt_expand,
    sym_cross,
    verify_case,
    weyl_orders,
)
from spincorr.opalg.core import (
    CODE,
    MAX_DERIVS,
    PI,
    PIS,
    SYMBOL,
    ZERO_UNITS,
    OpExpr,
    _fold_i,
    _is_trace_b,
    _pi_run,
    _trace_b_replacements,
    eps,
)

ALGEBRAS = {
    "charged": lambda: Algebra(charged=True),
    "neutral": lambda: Algebra(charged=False),
    "loose": lambda: Algebra(charged=True, loose=True),
}


class SwapRewriting:
    """Reference normal form {word: (coeff, ipow, units-delta)} by single rewrite steps."""

    def __init__(self, charged: bool, loose: bool, max_derivs: int = 2):
        self.charged, self.loose, self.max_derivs = charged, loose, max_derivs
        self.dropped_derivatives = 0
        self.memo = {}

    def canon(self, word: tuple) -> dict:
        cached = self.memo.get(word)
        if cached is not None:
            result, drops = cached
            self.dropped_derivatives += drops
            return result
        before = self.dropped_derivatives
        result = self._uncached(word)
        self.memo[word] = (result, self.dropped_derivatives - before)
        return result

    @staticmethod
    def _merge(acc, word, coeff, ipow, units):
        ip, sg = _fold_i(ipow)
        key = (word, ip, units)
        s = acc.get(key, Fraction(0)) + coeff * sg
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)

    def _uncached(self, word: tuple) -> dict:
        nf = word_field_count(word)
        if nf > 1:
            return {}
        if nf == 1:
            pos = next(k for k, sym in enumerate(word) if is_field(sym))
            if pos > 0:
                i = word[pos - 1][1]
                base, comp, derivs = word[pos]
                swapped = word[: pos - 1] + (word[pos], word[pos - 1]) + word[pos + 1 :]
                acc = {}
                for w, (c, ip, u) in self.canon(swapped).items():
                    self._merge(acc, w, c, ip, u)
                if not self.loose:
                    if len(derivs) < self.max_derivs:
                        dsym = (base, comp, tuple(sorted(derivs + (i,))))
                        corr = word[: pos - 1] + (dsym,) + word[pos + 1 :]
                        for w, (c, ip, u) in self.canon(corr).items():
                            u2 = (u[0] + 1, u[1], u[2], u[3], u[4])
                            self._merge(acc, w, -c, ip + 1, u2)
                    else:
                        self.dropped_derivatives += 1
                return {w: (c, ip, u) for (w, ip, u), c in acc.items()}
            tail = tuple(sorted(word[1:], key=lambda s: s[1]))
            sym = word[0]
            if _is_trace_b(sym):
                return {
                    (rep,) + tail: (Fraction(-1), 0, ZERO_UNITS)
                    for rep in _trace_b_replacements(sym)
                }
            return {(sym,) + tail: (Fraction(1), 0, ZERO_UNITS)}

        for k in range(len(word) - 1):
            i, j = word[k][1], word[k + 1][1]
            if i > j:
                swapped = word[:k] + (word[k + 1], word[k]) + word[k + 2 :]
                acc = {}
                for w, (c, ip, u) in self.canon(swapped).items():
                    self._merge(acc, w, c, ip, u)
                if self.charged and not self.loose:
                    l = 6 - i - j
                    corr = word[:k] + (("B", l, ()),) + word[k + 2 :]
                    sign = eps(i, j, l)
                    for w, (c, ip, u) in self.canon(corr).items():
                        u2 = (u[0] + 1, u[1] - 1, u[2], u[3] + 1, u[4])
                        self._merge(acc, w, c * sign, ip + 1, u2)
                return {w: (c, ip, u) for (w, ip, u), c in acc.items()}
        return {word: (Fraction(1), 0, ZERO_UNITS)}


def is_field(sym: tuple) -> bool:
    return sym[0] != PI


def word_field_count(word: tuple) -> int:
    """Field symbols in a tuple word."""
    return sum(1 for sym in word if is_field(sym))


def _applicable_moves(word: tuple) -> list:
    moves = []
    has_field = word_field_count(word) == 1
    for p in range(len(word) - 1):
        a, b = word[p], word[p + 1]
        if not is_field(a) and is_field(b):
            moves.append((p, "r1"))
        elif not is_field(a) and not is_field(b) and a[1] > b[1]:
            moves.append((p, "swap" if has_field else "r2"))
    return moves


def normalize_random(alg: Algebra, expr, rng):
    """Normal form of expr in alg's rules, by randomly ordered single rewrite steps.

    Bypasses alg's memoized canonicalizer entirely; agreement with
    canonicalize() on random inputs is the confluence check. Truncated
    derivative steps count into alg.dropped_derivatives.
    """
    out: dict = {}
    work = [
        (word, spin, units, ipow, coeff)
        for (word, spin, units, ipow), coeff in expr.terms.items()
    ]
    fuel = 200000
    while work:
        fuel -= 1
        if fuel < 0:
            raise RuntimeError("randomized rewriting exceeded its step budget")
        word, spin, units, ipow, coeff = work.pop(rng.randrange(len(work)))
        if word_field_count(word) > 1:
            continue
        moves = _applicable_moves(word)
        if not moves:
            if word and _is_trace_b(word[0]):
                for rep in _trace_b_replacements(word[0]):
                    work.append(((rep,) + word[1:], spin, units, ipow, -coeff))
                continue
            ip, sg = _fold_i(ipow)
            key = (word, spin, units, ip)
            s = out.get(key, Fraction(0)) + coeff * sg
            if s:
                out[key] = s
            else:
                out.pop(key, None)
            continue
        p, kind = moves[rng.randrange(len(moves))]
        swapped = word[:p] + (word[p + 1], word[p]) + word[p + 2 :]
        work.append((swapped, spin, units, ipow, coeff))
        if kind == "r1" and not alg.loose:
            i = word[p][1]
            base, comp, derivs = word[p + 1]
            if len(derivs) < MAX_DERIVS:
                dsym = (base, comp, tuple(sorted(derivs + (i,))))
                u2 = (units[0] + 1,) + units[1:]
                work.append(
                    (word[:p] + (dsym,) + word[p + 2 :], spin, u2, ipow + 1, -coeff)
                )
            else:
                alg.dropped_derivatives += 1
        elif kind == "r2" and alg.charged and not alg.loose:
            i, j = word[p][1], word[p + 1][1]
            l = 6 - i - j
            u2 = (units[0] + 1, units[1] - 1, units[2], units[3] + 1, units[4])
            work.append(
                (
                    word[:p] + (("B", l, ()),) + word[p + 2 :],
                    spin,
                    u2,
                    ipow + 1,
                    coeff * eps(i, j, l),
                )
            )
    return OpExpr(out)


def decoded(word: str) -> tuple:
    """The symbol tuple of one of Algebra's one-character-per-symbol words."""
    return tuple(SYMBOL[ch] for ch in word)


def as_table(entries: tuple) -> dict:
    """The word-table entries of Algebra in the reference's dict form, words decoded."""
    out = {}
    for w, c, ip, du in entries:
        assert isinstance(w, str) and isinstance(c, int) and ip in (0, 1)
        w = decoded(w)
        assert w not in out
        out[w] = (c, ip, du)
    return out


@pytest.mark.parametrize(
    "kind, case",
    [("charged", CASE_I), ("neutral", CASE_II), ("loose", CASE_I), ("loose", CASE_II)],
)
def test_memo_matches_swap_rewriting(kind, case):
    """Every word normal-ordered at order 4 has the reference's normal form and drop count.

    That covers the memo and the field-in-front words that bypass it.
    """
    alg = ALGEBRAS[kind]()
    seen = {}
    canon = alg._canon_word

    def recording(word):
        before = alg.dropped_derivatives
        entries = canon(word)
        seen[word] = (entries, alg.dropped_derivatives - before)
        return entries

    alg._canon_word = recording
    verify_case(case, 4, alg)
    assert alg._word_memo and len(seen) > len(alg._word_memo)
    for word, (entries, drops) in alg._word_memo.items():
        assert seen[word] == (entries, drops)
    ref = SwapRewriting(alg.charged, alg.loose)
    for word, (entries, drops) in seen.items():
        before = ref.dropped_derivatives
        assert as_table(entries) == ref.canon(decoded(word)), word
        assert drops == ref.dropped_derivatives - before, word


def test_codec_keeps_symbol_order():
    """One character per symbol, ordered as the symbol tuples sort: fields first, then pi_1..pi_3."""
    symbols = sorted(CODE)
    assert [CODE[sym] for sym in symbols] == sorted(CODE.values())
    assert len(SYMBOL) == len(CODE) == 63 and all(SYMBOL[CODE[sym]] == sym for sym in symbols)
    assert [CODE[(PI, i)] for i in (1, 2, 3)] == list(PIS)


def sort_charged_per_t(alg: Algebra, word: str, total: list) -> tuple:
    """Algebra._sort_charged with one Leibniz expansion per passed momentum.

    Passing the t-th placed pi_i from the right leaves all but t of the
    placed pi_i left of B, so each t is its own expansion: the loop that
    the closed-form runs of `_sort_charged` sum in one.
    """
    acc = {(_pi_run(total), 0, ZERO_UNITS): 1}
    placed = [0, 0, 0, 0]
    for ch in word:
        j = PIS.index(ch) + 1
        for i in range(3, j, -1):
            l = 6 - i - j
            sign = eps(i, j, l)
            rest = list(total)
            rest[i] -= 1
            rest[j] -= 1
            left = list(placed)
            left[i + 1 :] = [0] * (3 - i)
            for t in range(1, placed[i] + 1):
                left[i] = placed[i] - t
                for w, c, g in alg._leibniz(CODE[("B", l, ())], left, rest):
                    key = (w, (g + 1) & 1, (g + 1, -1, 0, 1, 0))
                    acc[key] = acc.get(key, 0) + (-c * sign if g & 1 else c * sign)
        placed[j] += 1
    return tuple((w, c, ip, u) for (w, ip, u), c in acc.items() if c)


def test_closed_form_runs_match_per_t_expansions():
    """Entries, their order and the drop count: every pi word up to length 6, 300 random ones up to 18."""
    rng = Random(2424)
    words = ["".join(p) for n in range(7) for p in product(PIS, repeat=n)]
    words += ["".join(rng.choice(PIS) for _ in range(rng.randint(0, 18))) for _ in range(300)]
    closed, per_t = Algebra(charged=True), Algebra(charged=True)
    for word in words:
        total = [0] + [word.count(p) for p in PIS]
        before = closed.dropped_derivatives, per_t.dropped_derivatives
        assert closed._sort_charged(word, total) == sort_charged_per_t(per_t, word, total), word
        assert closed.dropped_derivatives - before[0] == per_t.dropped_derivatives - before[1], word
    assert per_t.dropped_derivatives > 0


def random_one_field_word(rng: Random):
    """Up to 8 momenta on either side of one E or B symbol with 0-2 derivatives."""
    left = [("pi", rng.randint(1, 3)) for _ in range(rng.randint(0, 8))]
    right = [("pi", rng.randint(1, 3)) for _ in range(rng.randint(0, 8))]
    derivs = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.4:
        # d3-carrying B3: the div B replacement applies at once
        base, comp, derivs = "B", 3, ([3] + derivs)[:2]
    else:
        base, comp = rng.choice(["B", "E"]), rng.randint(1, 3)
    return tuple(left) + ((base, comp, tuple(sorted(derivs))),) + tuple(right), len(left)


@pytest.mark.parametrize("kind", sorted(ALGEBRAS))
def test_one_field_words_leibniz(kind):
    """canonicalize equals randomly ordered rewriting; C(k, room + 1) truncations are counted."""
    rng = Random(4242)
    trace_b_hits = 0
    for _ in range(60):
        word, k = random_one_field_word(rng)
        trace_b_hits += _is_trace_b(word[k])
        room = MAX_DERIVS - len(word[k][2])
        want_drops = 0 if kind == "loose" else comb(k, room + 1)
        raw = ALGEBRAS[kind]().term(
            word,
            spin=rng.randrange(16),
            coeff=Fraction(rng.randint(1, 5), rng.randint(1, 4)),
            ipow=rng.randint(0, 3),
        )
        direct, rewritten = ALGEBRAS[kind](), ALGEBRAS[kind]()
        got = direct.canonicalize(raw)
        assert got == normalize_random(rewritten, raw, Random(rng.random())), word
        assert direct.dropped_derivatives == want_drops, word
        assert rewritten.dropped_derivatives == want_drops, word
    assert trace_b_hits >= 10


def weyl_order_per_l(alg: Algebra, X, k: int):
    """(X pi^{2k})_W as the literal average (1/(k+1)) sum_l pi^{2l} X pi^{2(k-l)}."""
    parts = [alg.product(alg.pi_even_power(l), X, alg.pi_even_power(k - l)) for l in range(k + 1)]
    return expr_sum(parts).scale(Fraction(1, k + 1))


def claimed_expansion_per_l(case: str, N: int, alg: Algebra):
    """The closed form with every Weyl sum rebuilt per k: O(N^2) large products."""
    beta = alg.beta()
    parts = []
    for n in range(N + 1):
        u = (0, 2 - 2 * n, 1 - 2 * n, 0, 0)
        parts.append(alg.multiply(beta, alg.pi_even_power(n)).scale(binom_half(n), units=u))
    if case == CASE_I:
        X = expr_sum(
            alg.multiply(alg.multiply(beta, alg.sigma(k)), alg.field("B", k)) for k in (1, 2, 3)
        )
        for k in range(N):
            u = (1, -1 - 2 * k, -1 - 2 * k, 1, 0)
            parts.append(weyl_order_per_l(alg, X, k).scale(-binom_minus_half(k) / 2, units=u))
    else:
        bar = sym_cross(alg, "E")
        so = expr_sum(alg.multiply(alg.sigma(k), bar[k - 1]) for k in (1, 2, 3))
        dv = alg.div_e()
        for k in range(N):
            mu_units = (0, -1 - 2 * k, -1 - 2 * k, 0, 1)
            parts.append(weyl_order_per_l(alg, so, k).scale(binom_minus_half(k), units=mu_units))
            dar_units = (1, -1 - 2 * k, -1 - 2 * k, 0, 1)
            parts.append(weyl_order_per_l(alg, dv, k).scale(-binom_minus_half(k) / 2, units=dar_units))
    return expr_sum(parts)


def weyl_operand(name: str, alg: Algebra):
    """Case I's beta sigma.B, or case II's spin-orbit or div E operand."""
    if name == "beta_sigma_B":
        return expr_sum(
            alg.multiply(alg.multiply(alg.beta(), alg.sigma(k)), alg.field("B", k)) for k in (1, 2, 3)
        )
    if name == "spin_orbit":
        bar = sym_cross(alg, "E")
        return expr_sum(alg.multiply(alg.sigma(k), bar[k - 1]) for k in (1, 2, 3))
    return alg.div_e()


@pytest.mark.parametrize("operand", ["beta_sigma_B", "div_E", "spin_orbit"])
@pytest.mark.parametrize("kind", sorted(ALGEBRAS))
def test_weyl_orders_match_per_l_sums(kind, operand):
    """The recurrence equals the literal per-l average for every k <= 6."""
    alg, ref = ALGEBRAS[kind](), ALGEBRAS[kind]()
    got = weyl_orders(alg, weyl_operand(operand, alg), 7)
    X = weyl_operand(operand, ref)
    assert len(got) == 7
    for k, w in enumerate(got):
        assert w == weyl_order_per_l(ref, X, k), k


@pytest.mark.parametrize("case", [CASE_I, CASE_II])
def test_claimed_expansion_matches_per_l_oracle(case):
    assert claimed_expansion(case, 8, case_algebra(case)) == claimed_expansion_per_l(case, 8, case_algebra(case))


# verify_case's truncation count on the series side alone
SERIES_DROPS = {(CASE_I, 4): 1440, (CASE_II, 4): 3045, (CASE_I, 6): 33024, (CASE_II, 6): 35490}


@pytest.mark.parametrize(
    "case, order, drops",
    [(CASE_I, 4, 2952), (CASE_II, 4, 6612), (CASE_I, 6, 69984), (CASE_II, 6, 86412)],
)
def test_dropped_derivatives_pinned(case, order, drops):
    """The truncation count of the one-swap rewriting, kept exactly, side by side.

    drops is the series plus the per-l closed form. The recurrence makes
    each left product pi^{2k} X once instead of N - k times, so the closed
    side now truncates exactly as often as the series, and verify_case
    counts twice the series.
    """
    series_drops = SERIES_DROPS[(case, order)]
    alg = case_algebra(case)
    series = series_sqrt_expand(case, order, alg)
    assert alg.dropped_derivatives == series_drops
    oracle = claimed_expansion_per_l(case, order, alg)
    assert alg.dropped_derivatives == drops
    assert (series - oracle).is_zero()

    closed = case_algebra(case)
    claimed_expansion(case, order, closed)
    assert closed.dropped_derivatives == series_drops

    both = case_algebra(case)
    ok, _ = verify_case(case, order, both)
    assert ok
    assert both.dropped_derivatives == 2 * series_drops


def test_product_folds_from_first_factor():
    """Same result as folding from the identity, one multiply pass fewer."""
    alg = Algebra(charged=True)
    factors = (alg.pi(2), alg.field("B", 3, (1,)), alg.pi(1), alg.pi(3))
    from_one = alg.one()
    for f in factors:
        from_one = alg.multiply(from_one, f)
    assert alg.product(*factors) == from_one
    assert alg.product() == alg.one()
    raw = alg.term((("pi", 2), ("pi", 1)))
    assert alg.product(raw) == alg.canonicalize(raw) != raw
