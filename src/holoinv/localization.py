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
on plain integers: its numerator and its denominator are products of the
entries' numerators and denominators, taken over common denominators with
no gcd on the way. A curve's factor (n+1) c1 - a D is reduced once, and
the pair once at the end, to lowest terms with a positive denominator.
localization_sum adds the components' pairs over the product of their
denominators and builds one Fraction, which reduces the sum once.
Unreduced integers grow with the entries, but never past the bit budget
below, which bounds them and not only the result. FixedPointData is
immutable, so each object is summed once, on first use, and keeps its
sum outside its fields; rescale_field builds each scaled trace and weight
as one Fraction of integer products.

The residue raises the trace to the power n+1, so a few short entries
can ask for an integer of millions of digits. FixedPointData therefore
bounds each component's integers before any power is taken:
_residue_bits gives an upper bound on the bit length of every integer
_contribution_pair forms, unreduced ones included, from the bit lengths
of the entries, and data above MAX_RESIDUE_BITS (2^18 bits, about 79,000
decimal digits) raise ValueError. The sum is bounded too: its unreduced
denominator is the product of the components' denominators and its
numerator is at most the count times the product of their larger
parts, so the components' estimates summed, plus the bit length of their
count, bound it, and data above MAX_RESIDUE_SUM_BITS (2^20 bits) raise
ValueError as well.

The sum is linear in the field, as f is. Replacing X by cX scales trace
and weights by c and fixes the degrees; with t = c*s the numerator gives
c^(n+1), the n-dim denominator factors give c^-(n-dim) and reading off
the t^dim coefficient gives c^-dim, so each contribution scales by c^1.

In the JSON wire format (fixed_point_data_from_dict, fixed_point_data_to_dict)
every rational is a JSON integer or a string "p" or "p/q" of ASCII digits,
p with an optional minus, each numeral at most 4,300 digits (Python's
int-string limit). That is what str of a Fraction writes, so every payload
read writes back; decimals, exponents, spaces, underscores and a plus sign
are refused. FixedPointData holds every entry to the same limit,
sys.get_int_max_str_digits() digits per numerator and denominator (0
lifts it), so data built in Python or by rescale_field write back too.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


# the degree of each omitted normal line, and the default tangent degree
_ZERO = Fraction(0)


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
    c1_tangent_deg: Fraction = _ZERO
    normal_line_degrees: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "trace_L", _exact(self.trace_L))
        weights = tuple(map(_exact, self.normal_weights))
        object.__setattr__(self, "normal_weights", weights)
        c1 = _exact(self.c1_tangent_deg)
        object.__setattr__(self, "c1_tangent_deg", c1)
        # flat normal summands (e.g. isolated points) may omit the degrees
        given = tuple(map(_exact, self.normal_line_degrees))
        degrees = given or (_ZERO,) * len(weights)
        object.__setattr__(self, "normal_line_degrees", degrees)
        if self.dim < 0:
            raise ValueError(f"component '{self.name}' has negative dimension")
        if self.dim >= 2:
            raise ValueError(
                f"component '{self.name}' has complex dimension {self.dim}; "
                "only dimensions 0 and 1 are supported")
        if not all(weights):
            raise NonsingularityError(
                f"zero normal weight on component '{self.name}': the residue "
                "formula requires a nonsingular linearization on the normal "
                "bundle (all normal weights nonzero)")
        if len(degrees) != len(weights):
            raise ValueError(
                f"component '{self.name}': {len(degrees)} normal "
                f"line degrees for {len(weights)} weights")
        if self.dim == 0:
            if c1:
                raise ValueError(
                    f"component '{self.name}': a point has no tangent degree")
            if any(given):
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
        # total bounds the bit length of every entry's numerator and
        # denominator, and one of at most 3 * digits bits (8^digits <
        # 10^digits) has at most `digits` digits
        digits = sys.get_int_max_str_digits()  # 0: no limit
        if digits and total > 3 * digits:
            for c in self.components:
                _check_digits(c, digits)

    @cached_property
    def _residue_sum(self) -> Fraction:
        # computed on first use and kept in the instance __dict__, which
        # the field-based __eq__, __hash__ and __repr__ do not read
        # over the product of the denominators, which the sum budget
        # bounds; Fraction reduces the sum once
        n = self.manifold_dim
        p, q = 0, 1
        for c in self.components:
            cp, cq = _contribution_pair(c, n)
            p, q = p * cq + cp * q, q * cq
        return Fraction(p, q)


# A component whose residue needs integers of at most this many bits
# (about 79,000 decimal digits) is summed in well under a second: the
# products and the gcds that reduce them are at most quadratic in that length.
MAX_RESIDUE_BITS = 1 << 18
# The same for the whole sum: each component's denominator enters the
# sum's, and the one gcd that reduces it is quadratic in its length.
MAX_RESIDUE_SUM_BITS = 1 << 20


def _residue_bits(c: ZeroComponent, n: int) -> int:
    """Upper bound on the bit length of every integer _contribution_pair(c,
    n) forms, read from the entries before any power is taken.

    With b(x) the bit length of the numerator of x plus that of its
    denominator, a product needs at most the bits of its factors, a sum one
    bit more than its longer term. Unreduced, a point's pair is a^(n+1) / P
    and a curve's a^n E / P, with E = (n+1) c1 - a D over the common
    denominator of c1 and a D, and P over the weights' numerators and
    denominators. Each takes at most n+1 factors of the trace a and every
    other entry at most twice: a weight in P and in D, a degree in c1 and
    in D. Each sum in E adds a bit per weight, which that nonzero weight
    pays for: b(w) is at least one above the larger of its two bit lengths.
    The numerator takes one part of the trace per factor, so the 1 added
    to each trace factor, with the denominator bits left over, covers the
    bits of n+1 and E's last subtraction. Dividing by a gcd only shrinks an
    integer, so the bound holds for the reduced E and pair too.
    """
    entries = 0
    for x in (c.c1_tangent_deg, *c.normal_weights, *c.normal_line_degrees):
        p, q = x.as_integer_ratio()
        entries += p.bit_length() + q.bit_length()
    p, q = c.trace_L.as_integer_ratio()
    return (n + 1) * (p.bit_length() + q.bit_length() + 1) + 2 * entries


def _check_digits(c: ZeroComponent, digits: int):
    """Refuse, with ValueError naming c and the entry, a numerator or
    denominator of more than `digits` decimal digits: Python's int-string
    limit, which str(int) in fixed_point_data_to_dict and int() in the
    reader hit. Only one of more than 3 * digits bits pays for the exact
    comparison with 10^digits."""
    entries = [("trace_L", c.trace_L), ("c1_tangent_deg", c.c1_tangent_deg),
               *(("normal_weights", w) for w in c.normal_weights),
               *(("normal_line_degrees", g) for g in c.normal_line_degrees)]
    for key, x in entries:
        for part in x.as_integer_ratio():
            if part.bit_length() > 3 * digits and abs(part) >= 10 ** digits:
                raise ValueError(
                    f"component '{c.name}': an entry of {key} has more than {digits} "
                    "decimal digits, the int-string limit, so it could not be written back")


def _contribution_pair(c: ZeroComponent, n: int) -> tuple[int, int]:
    """component_contribution(c, n) as a (numerator, denominator) pair in
    lowest terms with a positive denominator.

    With a = trace_L, P the product of the weights w_j, c1 = c1_tangent_deg
    + sum of the degrees g_j and D = sum_j g_j / w_j, a point contributes
    a^(n+1) / P and a curve a^n ((n+1) c1 - a D) / P: the t^dim coefficient
    of the closed-form classes of component_contribution_parts.

    Numerator and denominator are plain integer products of the entries'
    numerators and denominators, over common denominators and with no gcd
    on the way; a curve reduces (n+1) c1 - a D once, and the pair is
    reduced once at the end. Unreduced, each integer still has at most
    _residue_bits(c, n) bits, so the budget covers every intermediate.
    """
    if n < c.dim:
        raise ValueError(f"ambient dimension {n} below component dimension {c.dim}")
    ap, aq = c.trace_L.as_integer_ratio()
    p, q = ap ** n, aq ** n
    if c.dim == 0:
        p, q = p * ap, q * aq
        for w in c.normal_weights:
            wp, wq = w.as_integer_ratio()
            p, q = p * wq, q * wp
    else:
        cp, cq = c.c1_tangent_deg.as_integer_ratio()
        dp, dq = 0, 1
        for w, g in zip(c.normal_weights, c.normal_line_degrees):
            wp, wq = w.as_integer_ratio()
            gp, gq = g.as_integer_ratio()
            p, q = p * wq, q * wp
            cp, cq = cp * gq + gp * cq, cq * gq
            dp, dq = dp * gq * wp + gp * wq * dq, dq * gq * wp
        ep, eq = (n + 1) * cp * aq * dq - ap * dp * cq, cq * aq * dq
        e = math.gcd(ep, eq)
        p, q = p * (ep // e), q * (eq // e)
    k = math.gcd(p, q)
    if q < 0:
        k = -k
    return p // k, q // k


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

    The data are immutable, so the sum is computed on the first call and
    kept on the object; later calls return that same Fraction. An object
    built anew, by rescale_field or dataclasses.replace, sums afresh.
    """
    return data._residue_sum


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

    Each scaled trace and weight is built once, as the Fraction of the
    integer products of its numerator and denominator with c's, which
    reduces it with one gcd. The components and data are built through
    their constructors, so every check, both bit budgets included, runs
    again.
    """
    factor = _exact(c)
    if not factor:
        raise ValueError("rescaling factor must be nonzero")
    fp, fq = factor.as_integer_ratio()

    def scaled(x: Fraction) -> Fraction:
        p, q = x.as_integer_ratio()
        return Fraction(fp * p, fq * q)

    components = tuple([
        ZeroComponent(z.name, z.dim, scaled(z.trace_L), tuple(map(scaled, z.normal_weights)),
                      z.c1_tangent_deg, z.normal_line_degrees)
        for z in data.components])
    return FixedPointData(data.label, data.manifold_dim, components)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


# the one string form, "p" or "p/q": optional minus, ASCII digits, nothing else
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z", re.ASCII)


def _parse_rational(value, where: str) -> Fraction:
    """A JSON int, or a string "p" or "p/q" (ASCII -?[0-9]+(/[0-9]+)?, each
    numeral at most 4,300 digits), as a Fraction; anything else raises
    ValueError naming `where`.

    These are the forms fixed_point_data_to_dict writes (str of a Fraction),
    so every accepted value writes back. A bool, a float, a zero denominator,
    a numeral past Python's int digit limit and any other string ("1.5",
    "1e3", " 3", "+3", "3_0", non-ASCII digits) are refused.
    """
    if type(value) is int:  # what JSON gives most; bool is a subclass, not int
        return Fraction(value)
    if type(value) is not str:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError(
                f"{where}: rationals must be integers or 'p/q' strings, got {value!r}")
        if isinstance(value, int):
            return Fraction(value)
    plain = _PLAIN_RATIONAL.match(value)
    if plain:
        try:
            return Fraction(int(plain[1]), int(plain[2] or 1))
        except (ValueError, ZeroDivisionError):  # the digit limit, a zero denominator
            pass
    raise ValueError(f"{where}: invalid rational {value!r}")


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
    return ZeroComponent(
        name,
        _typed(dim, int, f"{where}: dim"),
        _parse_rational(trace_L, where),
        _rationals(weights, where, "normal_weights"),
        _parse_rational(entry.get("c1_tangent_deg", 0), where),
        _rationals(entry.get("normal_line_degrees", []), where, "normal_line_degrees"),
    )


def _rationals(values, where: str, key: str) -> tuple[Fraction, ...]:
    values = _typed(values, list, f"{where}: {key}")
    return tuple([_parse_rational(v, where) for v in values])


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
        except ValueError as exc:  # JSON syntax, UTF-8 decoding, int digit limit
            raise ValueError(f"fixed-point file {path}: {exc}") from exc
    return fixed_point_data_from_dict(payload)
