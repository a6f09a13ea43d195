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

The sum is linear in the field, as f is. Replacing X by cX scales trace
and weights by c and fixes the degrees; with t = c*s the numerator gives
c^(n+1), the n-dim denominator factors give c^-(n-dim) and reading off
the t^dim coefficient gives c^-dim, so each contribution scales by c^1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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

    @staticmethod
    def linear(c0: Rational, c1: Rational, dim: int) -> "CohomologyClass":
        if dim == 0:
            return CohomologyClass.constant(c0, 0)
        coeffs = [Fraction(0)] * (dim + 1)
        coeffs[0] = Fraction(c0)
        coeffs[1] = Fraction(c1)
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
        for c in self.components:
            expected = self.manifold_dim - c.dim
            if len(c.normal_weights) != expected:
                raise ValueError(
                    f"component '{c.name}': {len(c.normal_weights)} normal weights, "
                    f"expected {expected} for dim {c.dim} in ambient "
                    f"dimension {self.manifold_dim}")


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
    and are the reference for this expansion. Exposed separately so the
    intermediate expansion of a residue can be inspected;
    component_contribution returns just the value.
    """
    if n < c.dim:
        raise ValueError(f"ambient dimension {n} below component dimension {c.dim}")
    a = c.trace_L
    inv0 = 1 / math.prod(c.normal_weights, start=Fraction(1))
    if c.dim == 0:
        num0 = a ** (n + 1)
        return CohomologyClass((num0,)), CohomologyClass((inv0,)), num0 * inv0
    chern_restricted = c.c1_tangent_deg + sum(c.normal_line_degrees, Fraction(0))
    drift = sum((g / w for w, g in zip(c.normal_weights, c.normal_line_degrees)),
                Fraction(0))
    a_n = a ** n
    num0, num1 = a_n * a, (n + 1) * a_n * chern_restricted
    inv1 = -drift * inv0
    return (CohomologyClass((num0, num1)), CohomologyClass((inv0, inv1)),
            num0 * inv1 + num1 * inv0)


def component_contribution(c: ZeroComponent, n: int) -> Fraction:
    """Residue of one component in the ambient dimension n."""
    return component_contribution_parts(c, n)[2]


def localization_sum(data: FixedPointData) -> Fraction:
    """Exact residue sum; equals (1/2pi)^n (n+1) f(X).

    Linear in the field: localization_sum(rescale_field(data, c)) ==
    c * localization_sum(data) exactly.
    """
    return sum((component_contribution(c, data.manifold_dim) for c in data.components),
               Fraction(0))


def unnormalized_invariant(data: FixedPointData) -> float:
    """f(X) as a float: residue sum times (2pi)^n / (n+1).

    The exact rational is converted to the nearest binary64 before the
    transcendental factor is applied; a non-finite result raises ValueError.
    """
    n = data.manifold_dim
    total = localization_sum(data)
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
        ZeroComponent(
            name=z.name,
            dim=z.dim,
            trace_L=factor * z.trace_L,
            normal_weights=tuple(factor * w for w in z.normal_weights),
            c1_tangent_deg=z.c1_tangent_deg,
            normal_line_degrees=z.normal_line_degrees,
        )
        for z in data.components
    )
    return FixedPointData(data.label, data.manifold_dim, components)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(
            f"{where}: rationals must be integers or 'p/q' strings, got {value!r}")
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
