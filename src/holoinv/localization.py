"""Exact residue evaluation of the invariant from fixed-point data.

The zero set of a holomorphic vector field is described component by
component: the constant trace of the linearization along the component,
the nonzero eigenvalues of the linearization on the normal bundle, and the
degrees of the first Chern classes of the component's tangent bundle and
normal line summands. Degrees are given in units of the positive generator
t of the component's top cohomology, normalized so the pairing of t^dim
against the component is 1.

Each component contributes the degree-dim coefficient of

    (trace + c1|_Z * t)^(n+1) / prod_j (w_j + deg_j * t)

in the truncated polynomial ring Q[t]/(t^(dim+1)), and the sum of
contributions equals (1/2pi)^n (n+1) f(X). A component is a point or a
curve, so its numerator and inverted denominator classes have at most two
terms and are built in closed form. CohomologyClass with class_mul,
class_pow and class_inverse is the general ring arithmetic; it stays
public as the reference for that closed form. All arithmetic here is
exact rational; floats appear only in the final unnormalization.

One private kernel, _contribution_pair, computes a component's residue
on plain integer (numerator, denominator) pairs, and localization_sum
adds those pairs before it builds one Fraction. Every pair is kept in
lowest terms with a positive denominator, reduced the way Fraction
reduces: a product takes two cross gcds (numerator of each factor
against the denominator of the other), a sum one gcd of the two
denominators and one of the new numerator against it. The reduction
keeps the integers as small as the value allows; without it, entries of
thousands of digits would multiply into far larger ones.

The residue raises the trace to the power n+1, so a few short entries
can ask for an integer of millions of digits. FixedPointData therefore
bounds each component's result size before any power is taken:
_residue_bits gives an upper bound on the bit length of its numerator
and of its denominator from the bit lengths of its entries, and data
above MAX_RESIDUE_BITS (2^18 bits, about 79,000 decimal digits) raise
ValueError. The sum is bounded too: its denominator divides the product
of the components' denominators and its numerator is at most the count
times their largest, so the components' estimates summed, plus the bit
length of their count, bound it, and data above MAX_RESIDUE_SUM_BITS
(2^20 bits) raise ValueError as well.

The sum is linear in the field, as f is. Replacing X by cX scales trace
and weights by c and fixes the degrees; with t = c*s the numerator gives
c^(n+1), the n-dim denominator factors give c^-(n-dim) and reading off
the t^dim coefficient gives c^-dim, so each contribution scales by c^1.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

from .errors import NonInvertibleClassError, NonsingularityError

Rational = Union[Fraction, int]


def _exact(value) -> Fraction:
    # Fraction(x) of a Fraction x builds an equal copy; skip it
    return value if type(value) is Fraction else Fraction(value)


@dataclass(frozen=True)
class CohomologyClass:
    """Truncated polynomial c0 + c1 t + ... + c_d t^d with exact coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_exact(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a class needs at least its degree-zero coefficient")

    @property
    def dim(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(value: Rational, dim: int) -> "CohomologyClass":
        coeffs = [Fraction(0)] * (dim + 1)
        coeffs[0] = Fraction(value)
        return CohomologyClass(tuple(coeffs))


def class_mul(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Product in the truncated ring; degrees above the component dim vanish."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    d = a.dim
    out = [Fraction(0)] * (d + 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j in range(d + 1 - i):
            out[i + j] += ca * b.coeffs[j]
    return CohomologyClass(tuple(out))


def class_pow(a: CohomologyClass, exponent: int) -> CohomologyClass:
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    out = CohomologyClass.constant(1, a.dim)
    for _ in range(exponent):
        out = class_mul(out, a)
    return out


def class_inverse(a: CohomologyClass) -> CohomologyClass:
    """Truncated geometric-series inverse; requires a nonzero constant term."""
    if a.coeffs[0] == 0:
        raise NonInvertibleClassError(
            "constant term is zero (degenerate linearization); no inverse exists")
    d = a.dim
    inv = [Fraction(0)] * (d + 1)
    inv[0] = 1 / a.coeffs[0]
    for k in range(1, d + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += a.coeffs[j] * inv[k - j]
        inv[k] = -acc / a.coeffs[0]
    return CohomologyClass(tuple(inv))


@dataclass(frozen=True)
class ZeroComponent:
    """One connected component of the zero set of the vector field.

    trace_L is the trace of the full linearization restricted to the
    component (tangent directions contribute zero); normal_weights are its
    eigenvalues on the normal bundle, split into line summands whose first
    Chern classes have the given degrees.
    """

    name: str
    dim: int
    trace_L: Fraction
    normal_weights: tuple[Fraction, ...]
    c1_tangent_deg: Fraction = Fraction(0)
    normal_line_degrees: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "trace_L", _exact(self.trace_L))
        object.__setattr__(self, "normal_weights",
                           tuple(_exact(w) for w in self.normal_weights))
        object.__setattr__(self, "c1_tangent_deg", _exact(self.c1_tangent_deg))
        degrees = tuple(_exact(v) for v in self.normal_line_degrees)
        if not degrees and self.normal_weights:
            # flat normal summands (e.g. isolated points) may omit the degrees
            degrees = (Fraction(0),) * len(self.normal_weights)
        object.__setattr__(self, "normal_line_degrees", degrees)
        if self.dim < 0:
            raise ValueError(f"component '{self.name}' has negative dimension")
        if self.dim >= 2:
            raise ValueError(
                f"component '{self.name}' has complex dimension {self.dim}; "
                "only dimensions 0 and 1 are supported")
        for w in self.normal_weights:
            if w == 0:
                raise NonsingularityError(
                    f"zero normal weight on component '{self.name}': the residue "
                    "formula requires a nonsingular linearization on the normal "
                    "bundle (all normal weights nonzero)")
        if len(self.normal_line_degrees) != len(self.normal_weights):
            raise ValueError(
                f"component '{self.name}': {len(self.normal_line_degrees)} normal "
                f"line degrees for {len(self.normal_weights)} weights")
        if self.dim == 0:
            if self.c1_tangent_deg != 0:
                raise ValueError(
                    f"component '{self.name}': a point has no tangent degree")
            if any(v != 0 for v in self.normal_line_degrees):
                raise ValueError(
                    f"component '{self.name}': normal line degrees over a point "
                    "must vanish")


@dataclass(frozen=True)
class FixedPointData:
    """All zero-set components of one field on one manifold."""

    label: str
    manifold_dim: int
    components: tuple[ZeroComponent, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.manifold_dim < 1:
            raise ValueError("manifold_dim must be >= 1")
        if not self.components:
            raise ValueError("fixed-point data needs at least one component")
        total = len(self.components).bit_length()
        for c in self.components:
            expected = self.manifold_dim - c.dim
            if len(c.normal_weights) != expected:
                raise ValueError(
                    f"component '{c.name}': {len(c.normal_weights)} normal weights, "
                    f"expected {expected} for dim {c.dim} in ambient "
                    f"dimension {self.manifold_dim}")
            bits = _residue_bits(c, self.manifold_dim)
            if bits > MAX_RESIDUE_BITS:
                raise ValueError(
                    f"component '{c.name}': its residue may need integers of {bits} bits, "
                    f"above the budget of {MAX_RESIDUE_BITS}")
            total += bits
        if total > MAX_RESIDUE_SUM_BITS:
            raise ValueError(
                f"fixed-point data '{self.label}': its residue sum may need integers of "
                f"{total} bits, above the budget of {MAX_RESIDUE_SUM_BITS}")


# A component's residue whose numerator and denominator have at most this
# many bits (about 79,000 decimal digits) takes well under a second: the
# gcds and divisions that keep it reduced are quadratic in that length.
MAX_RESIDUE_BITS = 1 << 18
# The same for the whole sum: each component's denominator enters the
# running sum's, and the gcd of each addition is quadratic in its length.
MAX_RESIDUE_SUM_BITS = 1 << 20


def _residue_bits(c: ZeroComponent, n: int) -> int:
    """Upper bound on the bit length of the numerator and of the denominator
    of component_contribution(c, n), read from the entries before any power
    is taken.

    With b(x) the bit length of the numerator of x plus that of its
    denominator, a product needs at most the bits of its factors, a sum one
    bit more. The residue a^n ((n+1) c1 - a D) / P (see _contribution_pair)
    takes n+1 factors of the trace a and each weight or degree at most
    twice, in P, D or c1. A nonzero weight w has b(w) at least one above the
    larger of its two bit lengths, which covers the sums; the n+1 added to
    the trace's factors covers the bits of n+1.
    """
    entries = 0
    for x in (c.c1_tangent_deg, *c.normal_weights, *c.normal_line_degrees):
        p, q = x.as_integer_ratio()
        entries += p.bit_length() + q.bit_length()
    p, q = c.trace_L.as_integer_ratio()
    return (n + 1) * (p.bit_length() + q.bit_length() + 1) + 2 * entries


def _mul(p1: int, q1: int, p2: int, q2: int) -> tuple[int, int]:
    """(p1/q1)(p2/q2) in lowest terms, from two fractions in lowest terms."""
    g1 = math.gcd(p1, q2)
    g2 = math.gcd(p2, q1)
    return (p1 // g1) * (p2 // g2), (q1 // g2) * (q2 // g1)


def _add(p1: int, q1: int, p2: int, q2: int) -> tuple[int, int]:
    """p1/q1 + p2/q2 in lowest terms, from two fractions in lowest terms."""
    g = math.gcd(q1, q2)
    if g == 1:
        return p1 * q2 + p2 * q1, q1 * q2
    s = q1 // g
    t = p1 * (q2 // g) + p2 * s
    g2 = math.gcd(t, g)
    return t // g2, s * (q2 // g2)


def _inverse(x: Fraction) -> tuple[int, int]:
    """1/x in lowest terms with a positive denominator; x is nonzero."""
    p, q = x.as_integer_ratio()
    return (q, p) if p > 0 else (-q, -p)


def _contribution_pair(c: ZeroComponent, n: int) -> tuple[int, int]:
    """component_contribution(c, n) as a (numerator, denominator) pair in
    lowest terms with a positive denominator.

    With a = trace_L, P the product of the weights w_j, c1 = c1_tangent_deg
    + sum of the degrees g_j and D = sum_j g_j / w_j, a point contributes
    a^(n+1) / P and a curve a^n ((n+1) c1 - a D) / P: the t^dim coefficient
    of the closed-form classes of component_contribution_parts.
    """
    if n < c.dim:
        raise ValueError(f"ambient dimension {n} below component dimension {c.dim}")
    ap, aq = c.trace_L.as_integer_ratio()
    ip, iq = 1, 1  # 1 / P
    for w in c.normal_weights:
        ip, iq = _mul(ip, iq, *_inverse(w))
    if c.dim == 0:
        return _mul(ap ** (n + 1), aq ** (n + 1), ip, iq)
    cp, cq = c.c1_tangent_deg.as_integer_ratio()
    dp, dq = 0, 1
    for w, g in zip(c.normal_weights, c.normal_line_degrees):
        gp, gq = g.as_integer_ratio()
        cp, cq = _add(cp, cq, gp, gq)
        dp, dq = _add(dp, dq, *_mul(gp, gq, *_inverse(w)))
    adp, adq = _mul(ap, aq, dp, dq)
    ep, eq = _add(*_mul(n + 1, 1, cp, cq), -adp, adq)  # (n+1) c1 - a D
    return _mul(*_mul(ap ** n, aq ** n, ep, eq), ip, iq)


def component_contribution_parts(c: ZeroComponent, n: int):
    """Numerator class, inverted denominator class and paired value.

    A point or curve component has both classes in closed form. With
    a = trace_L, c1 = c1_tangent_deg + sum of the normal line degrees, and
    weights w_j of degrees g_j, truncated at t^dim (a point keeps only the
    constant terms):

        numerator = (a + c1 t)^(n+1) = a^(n+1) + (n+1) a^n c1 t
        inverted  = 1 / prod_j (w_j + g_j t) = (1 - sum_j (g_j / w_j) t) / prod_j w_j

    and the value is the t^dim coefficient of their product. class_pow,
    class_mul and class_inverse give the same classes in the general ring
    and are the reference for this expansion. The classes are for
    inspection of the intermediate expansion only; the value is
    component_contribution(c, n), from the integer-pair kernel, so the
    residue has one formula.
    """
    value = component_contribution(c, n)
    a = c.trace_L
    inv0 = 1 / math.prod(c.normal_weights, start=Fraction(1))
    if c.dim == 0:
        return CohomologyClass((a ** (n + 1),)), CohomologyClass((inv0,)), value
    chern_restricted = c.c1_tangent_deg + sum(c.normal_line_degrees, Fraction(0))
    drift = sum((g / w for w, g in zip(c.normal_weights, c.normal_line_degrees)),
                Fraction(0))
    a_n = a ** n
    return (CohomologyClass((a_n * a, (n + 1) * a_n * chern_restricted)),
            CohomologyClass((inv0, -drift * inv0)), value)


def component_contribution(c: ZeroComponent, n: int) -> Fraction:
    """Residue of one component in the ambient dimension n."""
    return Fraction(*_contribution_pair(c, n))


def localization_sum(data: FixedPointData) -> Fraction:
    """Exact residue sum; equals (1/2pi)^n (n+1) f(X).

    Linear in the field: localization_sum(rescale_field(data, c)) ==
    c * localization_sum(data) exactly.
    """
    p, q = 0, 1
    for c in data.components:
        p, q = _add(p, q, *_contribution_pair(c, data.manifold_dim))
    return Fraction(p, q)


def unnormalized_invariant(data: FixedPointData) -> float:
    """f(X) as a float: residue sum times (2pi)^n / (n+1).

    The exact rational is converted to the nearest binary64 before the
    transcendental factor is applied; a non-finite result raises ValueError.
    """
    return _invariant_from_sum(data, localization_sum(data))


def _invariant_from_sum(data: FixedPointData, total: Fraction) -> float:
    """unnormalized_invariant(data) from its exact residue sum `total`."""
    n = data.manifold_dim
    try:
        value = float(total) * (2.0 * math.pi) ** n / (n + 1) if total else 0.0
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"f(X) of '{data.label}' is not a finite float; the exact "
                         "residue sum (localization_sum) is still valid")
    return value


def rescale_field(data: FixedPointData, c: Rational) -> FixedPointData:
    """Fixed-point data of the rescaled field c X: traces and weights scale.

    Chern degrees are unchanged, so localization_sum(rescale_field(data, c))
    == c * localization_sum(data) exactly.
    """
    factor = Fraction(c)
    if factor == 0:
        raise ValueError("rescaling factor must be nonzero")
    components = tuple(
        replace(z, trace_L=factor * z.trace_L,
                normal_weights=tuple(factor * w for w in z.normal_weights))
        for z in data.components
    )
    return FixedPointData(data.label, data.manifold_dim, components)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


# Fraction("1e<k>") builds 10**k as a full integer, which Python's digit
# limit on int parsing does not guard: "1e1000000000" alone would parse for
# hours. Decimal exponents beyond this bound in absolute value are rejected.
MAX_DECIMAL_EXPONENT = 10_000
_DECIMAL_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(
            f"{where}: rationals must be integers or 'p/q' strings, got {value!r}")
    exponent = _DECIMAL_EXPONENT.search(value) if isinstance(value, str) else None
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"{where}: decimal exponent of {value!r} exceeds "
                             f"{MAX_DECIMAL_EXPONENT} in absolute value")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: invalid rational {value!r}") from exc


def _typed(value, kind: type, where: str):
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def _parse_component(entry) -> ZeroComponent:
    entry = _typed(entry, dict, "component")
    name = _typed(entry.get("name"), str, "component name")
    where = f"component '{name}'"
    try:
        dim, trace_L, weights = entry["dim"], entry["trace_L"], entry["normal_weights"]
    except KeyError as exc:
        raise ValueError(f"{where} missing key: {exc}") from exc

    def rationals(values, key):
        values = _typed(values, list, f"{where}: {key}")
        return tuple(_parse_rational(v, where) for v in values)

    return ZeroComponent(
        name=name,
        dim=_typed(dim, int, f"{where}: dim"),
        trace_L=_parse_rational(trace_L, where),
        normal_weights=rationals(weights, "normal_weights"),
        c1_tangent_deg=_parse_rational(entry.get("c1_tangent_deg", 0), where),
        normal_line_degrees=rationals(entry.get("normal_line_degrees", []),
                                      "normal_line_degrees"),
    )


def fixed_point_data_from_dict(payload: dict) -> FixedPointData:
    """Parse the JSON object form of fixed-point data, validating as it goes.

    Malformed input raises ValueError, or a HoloinvError where the data
    breaks a hypothesis of the residue formula.
    """
    payload = _typed(payload, dict, "fixed-point data")
    try:
        label = _typed(payload["label"], str, "label")
        manifold_dim = _typed(payload["manifold_dim"], int, "manifold_dim")
        raw_components = _typed(payload["components"], list, "components")
    except KeyError as exc:
        raise ValueError(f"fixed-point data missing key: {exc}") from exc
    components = tuple(_parse_component(entry) for entry in raw_components)
    return FixedPointData(label, manifold_dim, components)


def fixed_point_data_to_dict(data: FixedPointData) -> dict:
    return {
        "label": data.label,
        "manifold_dim": data.manifold_dim,
        "components": [
            {
                "name": c.name,
                "dim": c.dim,
                "trace_L": str(c.trace_L),
                "normal_weights": [str(w) for w in c.normal_weights],
                "c1_tangent_deg": str(c.c1_tangent_deg),
                "normal_line_degrees": [str(v) for v in c.normal_line_degrees],
            }
            for c in data.components
        ],
    }


def load_fixed_point_data(path) -> FixedPointData:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except RecursionError as exc:
            raise ValueError(f"fixed-point file {path} is nested too deeply") from exc
    return fixed_point_data_from_dict(payload)
