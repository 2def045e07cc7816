"""Static electromagnetic field models with exact analytic derivatives.

Every model returns potentials, fields and all first spatial derivatives
in closed form; nothing is differentiated numerically. Jacobians use the
convention jac[i, j] = d(component i)/d(x_j).

A model writes its components once, as straight-line source on x0, x1,
x2 kept in `source` = (text, constant names, values). The text assigns the
scalar slots phi, A0-A2, E0-E2, B0-B2, P0-P2 (grad phi), J00-J22 (jac A),
K00-K22 (grad E) and G00-G22 (grad B); its own names end in "_". A vector
or Jacobian row it does not write is the ZERO3 sentinel, a Jacobian with
none ZERO33, whose terms the kernels skip. `components`, compiled from the
source, returns a FieldSample of tuples of components, each a float at one
point or an (N,) array at N points; the classical kernels inline the same
source, and `sample_field` packs a sample into arrays. Generated code goes
through `optimized`, exact to the sign of every zero where stage values are finite.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# the zero vector and Jacobian: the sentinels of the slots a model does not write
ZERO3 = (0.0, 0.0, 0.0)
ZERO33 = (ZERO3, ZERO3, ZERO3)


def math_of(u):
    """The module whose sqrt/sin/cos fit u: numpy for an array, math for a float."""
    return np if isinstance(u, np.ndarray) else math


class FieldSample(NamedTuple):
    """Potentials, fields and first derivatives.

    Static fields only, so E = -grad(phi) and B = curl(A) exactly. From
    `sample_field` the vectors are arrays of shape (3,) and Jacobians
    (3, 3) at one point, with a leading axis of length N at N points;
    from a model's `components` they are tuples of components.
    """

    phi: float
    A: np.ndarray
    E: np.ndarray
    B: np.ndarray
    grad_phi: np.ndarray
    jac_A: np.ndarray
    grad_E: np.ndarray
    grad_B: np.ndarray


# straight-line source, shared with the classical kernels: a name that is read, not an attribute
_NAME = re.compile(r"((?<![.\w])[A-Za-z_]\w*)")
# the slot names of each vector (A, E, B, P) and Jacobian (J, K, G) in FieldSample order, row by row
_SLOTS = {X: [X + i for i in "012"] for X in "AEBP"} | {X: [X + i + j for i in "012" for j in "012"] for X in "JKG"}


def substitute(text, names):
    """text with each name read in it that `names` maps replaced by its value."""
    pattern = r"(?<![.\w])(?:" + "|".join(names) + r")(?!\w)"
    return re.sub(pattern, lambda m: names[m[0]], text) if names else text


@functools.cache
def statements(text):
    """The (target, expression) assignments of straight-line source in order, (None, line) for another line; a tuple
    assignment "a, b = u, v" gives one per element, and no expression holds ", "."""
    pairs = []
    for line in text.splitlines():
        targets, _, exprs = line.partition(" = ")
        pairs += zip(targets.split(", "), exprs.split(", "), strict=True) if exprs else [(None, line)]
    return tuple(pairs)


# more than arithmetic on names and numbers; a signed term at most one parenthesis deep; a product by 0.0 or -0.0
_OPAQUE = re.compile(r"[^\w .+\-*/()]|\*\*|//|\w\(|\.[A-Za-z_]|\b(?:if|else|is|not|and|or|in|lambda|None)\b")
_TERM = re.compile(r"( [-+] )((?:[^ ()]| (?![-+] )|\([^()]*\))+)")
_ZERO = re.compile(r"(?:[^ ()/]+ \* )*-?0\.0(?: \* [^ ()/]+)*")


def _fold(expr, free):
    """expr without its zero products outside parentheses (a sum of zeros keeps its last term, and so its shape)
    and, if free, its closing + 0.0; expr itself if parentheses go deeper than one."""
    terms, closed = _TERM.findall(" + " + expr), expr.endswith(" + 0.0")
    if "".join(map("".join, terms)) != " + " + expr:
        return expr
    body = terms[: len(terms) - closed]
    kept = [p for p in body if not _ZERO.fullmatch(p[1])] or body[-1:]
    expr = "".join(s + t for s, t in kept + terms[-1:] * (closed and not free))
    return ("-" if expr[1] == "-" else "") + expr[3:]


def optimized(pairs, keep):
    """The (target, expression) pairs, each name assigned once, as lines, `keep` read after them: a name bound to a
    name or 0.0 reads as that, unread lines go, and zero products and a closing + 0.0 leave sums where every path
    on runs by +, -, *, unary minus or numerators into a + 0.0. Divisors, opaque lines and `keep` are results."""
    alias, forward = {}, []
    for target, expr in pairs:
        parts = _NAME.split(expr)
        if not alias.keys().isdisjoint(names := parts[1::2]):
            parts[1::2] = names = [alias.get(name, name) for name in names]
            expr = "".join(parts)
        if target and (expr.isidentifier() or expr == "0.0"):
            alias[target] = expr
        forward.append((target, expr, names))
    # the names read further on, and those of them where the sign of a zero may reach a result
    read, signed, lines = set(keep), set(keep), []
    for target, expr, names in reversed(forward):
        if target is not None and target not in read:
            continue
        if target and ((free := target not in signed) or expr.endswith(" + 0.0")) and not _OPAQUE.search(expr):
            expr, names = _fold(expr, free), None
        signed.update(names or _NAME.findall(expr.partition(" / ")[2]))
        read.update(names or _NAME.findall(expr))
        lines.append(expr if target is None else f"{target} = {expr}")
    return lines[::-1]


@functools.cache
def layout(text):
    """(the slot groups a model's source writes, its FieldSample as source, the source followed by "X = 0.0"
    for each slot the kernels read that it does not write: of A, of B and of a Jacobian with a row written)."""
    written = {t for t, _ in statements(text)}
    groups = {X for X, slots in _SLOTS.items() if written.intersection(slots)}

    def rows(s):
        return [f"({', '.join(s[i : i + 3])})" if s[i] in written else "ZERO3" for i in range(0, len(s), 3)]

    jacobians = [f"({', '.join(rows(_SLOTS[X]))})" if X in groups else "ZERO33" for X in "JKG"]
    zeros = "".join(f"{s} = 0.0\n" for X in "ABJKG" if X in groups | {"A", "B"} for s in _SLOTS[X] if s not in written)
    return groups, f"FieldSample({', '.join(['phi', *(rows(_SLOTS[X])[0] for X in 'AEBP'), *jacobians])})", text + zeros


@functools.cache
def compiled(source):
    """The make function that `source` defines, compiled once per source text; lib is math where it sets none."""
    namespace = dict(FieldSample=FieldSample, ZERO3=ZERO3, ZERO33=ZERO33, lib=math, math_of=math_of, sqrt=math.sqrt)
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace["make"]


def make_source(signature, names, body):
    """Source of make(consts), which returns the function `signature` with `names` bound to the values in consts."""
    inner = "".join(f"        {line}\n" for line in [f"{', '.join(names)}, = consts"] * bool(names) + body)
    return f"def make(consts):\n    def {signature}:\n{inner}    return {signature.split('(')[0]}\n"


def field_source(signature, text, names, head, tail):
    """make_source of a function that runs the lines `head`, a model's source with its zeros and then `tail`."""
    lib = "lib = math_of(x0)\n" * ("lib." in text)
    return make_source(signature, names, [*head, *optimized(statements(lib + layout(text)[2] + tail), ())])


class _Model:
    """A field model, whose `source` its constructor sets."""

    @functools.cached_property
    def components(self):
        """The FieldSample at x, y, z as a function, compiled from the model's source."""
        text, names, values = self.source
        body = "return " + layout(text)[1]
        return compiled(field_source("components(x0, x1, x2)", text, names, [], body))(values)


@functools.cache
def _uniform(E, B):
    """Uniform's source with E and grad phi written only if E, and B only if B."""
    lines = Uniform.SOURCE.splitlines(True)
    return "".join(line for line in lines if (E or line[0] not in "EP") and (B or line[0] != "B"))


@dataclass(frozen=True)
class Uniform(_Model):
    """Homogeneous E0, B0 with phi = -E0.x.

    Landau-type gauge A = (B_y z - B_z y, 0, B_x y): for motion along x
    with B along z the canonical force equals the Lorentz force pointwise.
    """

    E0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    B0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    SOURCE = """\
phi = -(Ex_ * x0 + Ey_ * x1 + Ez_ * x2)
A0, A1, A2 = By_ * x2 - Bz_ * x1, 0.0, Bx_ * x1
E0, E1, E2 = Ex_, Ey_, Ez_
P0, P1, P2 = -Ex_, -Ey_, -Ez_
B0, B1, B2 = Bx_, By_, Bz_
J00, J01, J02, J20, J21, J22 = 0.0, -Bz_, By_, 0.0, Bx_, 0.0
"""

    def __post_init__(self):
        # an all-zero field is the ZERO3 sentinel, its components +0.0, and its slots are not written
        E, B = tuple(np.asarray(self.E0, dtype=float).tolist()), tuple(np.asarray(self.B0, dtype=float).tolist())
        E, B = ZERO3 if E == ZERO3 else E, ZERO3 if B == ZERO3 else B
        names = ("Ex_", "Ey_", "Ez_", "Bx_", "By_", "Bz_")
        object.__setattr__(self, "source", (_uniform(E is not ZERO3, B is not ZERO3), names, E + B))


@dataclass(frozen=True)
class SternGerlach(_Model):
    """Divergence- and curl-free magnetic gradient field.

    B = (-(b/2)x, -(b/2)y, B0 + b z), realized by the vector potential
    A = (-y(B0 + bz)/2, x(B0 + bz)/2, 0). A legitimate vacuum
    magnetostatic field: div B = 0 and curl B = 0 identically.
    """

    B0: float = 1.0
    b: float = 0.1
    SOURCE = """\
Bz_ = B0_ + b_ * x2
phi, A0, A1, A2 = 0.0, -0.5 * x1 * Bz_, 0.5 * x0 * Bz_, 0.0
B0, B1, B2 = hb_ * x0, hb_ * x1, Bz_
J00, J01, J02, J10, J11, J12 = 0.0, -0.5 * Bz_, -0.5 * x1 * b_, 0.5 * Bz_, 0.0, 0.5 * x0 * b_
G00, G01, G02, G10, G11, G12, G20, G21, G22 = hb_, 0.0, 0.0, 0.0, hb_, 0.0, 0.0, 0.0, b_
"""

    def __post_init__(self):
        # grad B is constant: hb_ = -b/2 is formed once
        object.__setattr__(self, "source", (self.SOURCE, ("B0_", "b_", "hb_"), (self.B0, self.b, -0.5 * self.b)))


@dataclass(frozen=True)
class _Sinusoid(_Model):
    lam: float = 1.0
    L: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "source", (self.SOURCE, ("k_", "lam_"), (2.0 * math.pi / self.L, self.lam)))


@dataclass(frozen=True)
class SinusoidalElectrostatic(_Sinusoid):
    """E = (lam sin(2 pi x/L), 0, 0) from phi = (lam L/2 pi) cos(2 pi x/L)."""

    SOURCE = """\
s_, c_ = lib.sin(k_ * x0), lib.cos(k_ * x0)
phi = lam_ / k_ * c_
E0, E1, E2, P0, P1, P2 = lam_ * s_, 0.0, 0.0, -lam_ * s_, 0.0, 0.0
K00, K01, K02 = lam_ * k_ * c_, 0.0, 0.0
"""


@dataclass(frozen=True)
class SinusoidalMagnetostatic(_Sinusoid):
    """B = (0, 0, lam cos(2 pi x/L)) from A = (0, (lam L/2 pi) sin(2 pi x/L), 0)."""

    SOURCE = """\
s_, c_ = lib.sin(k_ * x0), lib.cos(k_ * x0)
phi, A0, A1, A2, B0, B1, B2 = 0.0, 0.0, lam_ / k_ * s_, 0.0, 0.0, 0.0, lam_ * c_
J10, J11, J12, G20, G21, G22 = lam_ * c_, 0.0, 0.0, -lam_ * k_ * s_, 0.0, 0.0
"""


@functools.cache
def _superposed(sources):
    """The (text, constant names) of a sum of fields from each member's: member i's names renamed m{i}_name_,
    and each slot the sum, in member order, of the members that write it (one member's term alone)."""
    lines, names, terms = [] if sources else ["phi = 0.0\n"], [], {}
    for i, (text, consts) in enumerate(sources):
        rename = {name: f"m{i}_{name}_" for name in _NAME.findall(text) if name not in ("x0", "x1", "x2", "lib")}
        lines.append(substitute(text, rename))
        names += [rename[name] for name in consts]
        for slot in (target for target, _ in statements(text) if not target.endswith("_")):
            terms.setdefault(slot, []).append(rename[slot])
    return "".join(lines) + "".join(f"{slot} = {' + '.join(ts)}\n" for slot, ts in terms.items()), tuple(names)


@dataclass(frozen=True)
class Superposition(_Model):
    models: tuple

    def __init__(self, *models):
        """The field-by-field sum of the models, in model order."""
        object.__setattr__(self, "models", tuple(models))
        text, names = _superposed(tuple(m.source[:2] for m in models))
        object.__setattr__(self, "source", (text, names, tuple(v for m in models for v in m.source[2])))


def to_array(v, shape=()) -> np.ndarray:
    """Components (a number, an array or nested tuples of them) as one array.

    Each component is broadcast to `shape`; the tuple axes follow it, so
    a vector at N points has shape (N, 3) and a Jacobian (N, 3, 3).
    """
    if not shape:
        return np.array(v, dtype=float)
    if isinstance(v, tuple):
        return np.stack([to_array(c, shape) for c in v], axis=len(shape))
    return np.broadcast_to(np.asarray(v, dtype=float), shape)


# read outside the tests only by perfbench's probes; the kernels inline the model's source
def sample_field(model, x: np.ndarray) -> FieldSample:
    """Evaluate a field model at position x (all derivatives analytic).

    x of shape (3,) gives (3,) vectors and (3, 3) Jacobians; x of shape
    (N, 3) samples each row and gives (N, 3) and (N, 3, 3).
    """
    x = np.asarray(x, dtype=float)
    f = model.components(*(x.tolist() if x.ndim == 1 else x.T))
    shape = x.shape[:-1]
    phi = to_array(f.phi, shape).copy() if shape else float(f.phi)
    return FieldSample(phi, *(to_array(v, shape) for v in f[1:]))
