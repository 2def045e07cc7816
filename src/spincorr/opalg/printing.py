"""Deterministic renderers for operator expressions (text and JSON-ready)."""

from __future__ import annotations

from .core import PI, OpExpr

UNIT_NAMES = ("hbar", "c", "m", "e", "mu'")


def spin_name(s: int) -> str:
    a, b = divmod(s, 4)
    sig = "" if b == 0 else f"sigma{b}"
    if a == 0:
        return sig or "1"
    if a == 1:
        return f"alpha{b}" if b else "rho1"
    if a == 3:
        return f"beta*{sig}" if sig else "beta"
    return f"rho2*{sig}" if sig else "rho2"


def symbol_name(sym: tuple) -> str:
    if sym[0] == PI:
        return f"pi{sym[1]}"
    base, comp, derivs = sym
    prefix = "".join(f"d{j}" for j in derivs)
    return f"{prefix}_{base}{comp}" if prefix else f"{base}{comp}"


def _unit_str(units: tuple) -> str:
    parts = []
    for name, k in zip(UNIT_NAMES, units):
        if k == 1:
            parts.append(name)
        elif k:
            parts.append(f"{name}^{k}")
    return " ".join(parts)


def term_sort_key(key: tuple):
    word, spin, units, ipow = key
    return (len(word), [symbol_name(s) for s in word], spin, units, ipow)


def leading_terms(expr: OpExpr, k: int) -> OpExpr:
    """The first k terms of expr in printing order."""
    keys = sorted(expr.terms, key=term_sort_key)[:k]
    return OpExpr({key: expr.terms[key] for key in keys})


def expr_to_records(expr: OpExpr) -> list[dict]:
    """Stable list-of-dicts form used by the JSON reports."""
    records = []
    for key in sorted(expr.terms, key=term_sort_key):
        word, spin, units, ipow = key
        coeff = expr.terms[key]
        records.append(
            {
                "coeff": str(coeff),
                "i_power": ipow,
                "units": {n: k for n, k in zip(UNIT_NAMES, units) if k},
                "word": [symbol_name(s) for s in word],
                "spin": spin_name(spin),
            }
        )
    return records


def expr_to_text(expr: OpExpr) -> str:
    if expr.is_zero():
        return "0"
    chunks = []
    for rec in expr_to_records(expr):
        factors = [rec["coeff"]]
        if rec["i_power"]:
            factors.append("i")
        u = _unit_str(tuple(rec["units"].get(n, 0) for n in UNIT_NAMES))
        if u:
            factors.append(u)
        factors.extend(rec["word"])
        if rec["spin"] != "1":
            factors.append(f"[{rec['spin']}]")
        chunks.append(" ".join(factors))
    return "  +  ".join(chunks)
