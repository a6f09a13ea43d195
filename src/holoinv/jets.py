"""Wirtinger jets: values with exact first and mixed second derivatives.

A Jet carries, at every point of a batch, the value of a function f of n
complex coordinates together with

* ``d[i]``      = df/dz^i,
* ``dbar[j]``   = df/dzbar^j,
* ``dd[i][j]``  = d^2 f / dz^i dzbar^j   (order 2 only; ``dd`` is None at order 1).

Evaluating a chart evaluator on ``variables(coords, order)`` instead of on
the coordinate array gives these derivatives to rounding, with no step:
forward-mode automatic differentiation (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13) in Wirtinger form. Every part is
an array that broadcasts against the value, or None where it is exactly
zero: the coordinates' derivatives are the unit vectors, and a holomorphic
expression never carries dbar. Parts are never written in place, so jets
share them freely. Jets nest with no rule of their own: on
``variables(inner, 2)`` over an order-1 jet ``inner`` the value and every
part are order-1 jets, so dd carries third derivatives. The inner jet is
``variables(coords, 1)``, whose d[i] are d/dz^i, or ``along(coords, [v_1,
..., v_k])``, whose d[r] are sum_i v_r^i d/dz^i. Each inner direction
costs about one more evaluation, so k >= n directions are better read off
the n axes, whose parts start as constants.
``shape``, ``ndim`` and ``dtype`` (and np.shape, np.ndim and
np.result_type) read through to the coordinates.

A jet supports these numpy ufuncs, dispatched through
``__array_ufunc__``: add, subtract, multiply, divide, negative, positive,
power with a constant exponent, log, log1p, exp, sqrt and conjugate. The
set is closed: a holomorphic g composes by
(g o f)_{i jbar} = g''(f) f_i f_jbar + g'(f) f_{i jbar} (log and log1p in
the quotient form (b_{i jbar} - b_i b_jbar / b) / b of their base b), and
conj swaps d and dbar. A plain operand of the four arithmetic rules is a
constant that shifts or scales the jet. ``.real``, ``.imag`` and indexing
on the last axis are supported, and ``np.zeros_like`` / ``np.ones_like``
give plain constant arrays. Anything else raises TypeError rather than
silently dropping the derivatives: a jet has no plain-array form.

Cost model: at the registered sizes (n <= 3, batches of a few hundred
points) a rule costs more in Python calls than in arithmetic, so the
rules skip zero parts inline. A None part costs a test, not a call, and
its result is None or the other operand's part as it is; each rule
builds its tuples directly, and a Jet stores the tuples it is given. The
d parts of ``variables(coords, order)`` are the rows of one read-only
identity per n, shared by every call.
"""

from __future__ import annotations

import numpy as np

# n -> the rows of a read-only n x n identity, the d parts of every
# variables(..., n); filled on first use
_UNITS = {}


def _take(part, last):
    """Entry `last` on the last axis of a part, as jet[..., last] takes it:
    a part broadcasts against the value, so its last axis is the value's
    (or has length 1); a scalar part is kept, and a scalar zero taken from
    an array becomes None."""
    if part is None or np.ndim(part) == 0:
        return part
    sub = part[..., last if np.shape(part)[-1] > 1 else 0]
    if np.ndim(sub) == 0:
        sub = sub[()]
        return None if sub == 0 else sub
    return sub


class Jet(np.lib.mixins.NDArrayOperatorsMixin):
    """A batched value with its Wirtinger derivatives; see the module docstring.
    `d` and `dbar` are tuples and `dd` a tuple of tuples, or None, stored as given."""

    __slots__ = ("value", "d", "dbar", "dd")

    def __init__(self, value, d, dbar, dd=None):
        self.value = value
        self.d = d
        self.dbar = dbar
        self.dd = dd

    @property
    def shape(self):
        return np.shape(self.value)

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def dtype(self):
        return np.result_type(self.value)

    def __len__(self):
        return len(self.value)

    def __array__(self, *args, **kwargs):
        raise TypeError("a Jet has no plain-array form: np.asarray would drop its "
                        "derivatives; write the evaluator with numpy ufuncs")

    def __array_function__(self, func, types, args, kwargs):
        read = _READ.get(func)
        if read is not None and len(args) == 1 and not kwargs:
            return read(self)
        make = _LIKE.get(func)
        if make is None or len(args) != 1 or set(kwargs) - {"dtype"}:
            return NotImplemented
        return make(self.shape, dtype=kwargs.get("dtype") or self.dtype)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _UFUNCS.get(ufunc)
        if rule is None or method != "__call__" or kwargs:
            return NotImplemented
        return rule(*inputs)

    def __getitem__(self, key):
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] is Ellipsis
                and isinstance(key[1], (int, np.integer))):
            raise TypeError(f"a Jet is indexed on its last axis only, as [..., k], not {key!r}")
        last = key[1]
        dd = None if self.dd is None else tuple(
            [tuple([_take(h, last) for h in row]) for row in self.dd])
        return Jet(self.value[key], tuple([_take(p, last) for p in self.d]),
                   tuple([_take(p, last) for p in self.dbar]), dd)

    @property
    def real(self):
        """Re f = (f + conj f) / 2."""
        return self._half(self.value.real, 0.5, False)

    @property
    def imag(self):
        """Im f = (f - conj f) / 2i."""
        return self._half(self.value.imag, -0.5j, True)

    def _half(self, value, factor, minus):
        """`value` with the parts factor * (p + conj q), or factor * (p - conj q)
        when `minus`, where conj q is the part of conj f at p's place (conj
        swaps d and dbar and transposes dd)."""
        def half(ps, qs):
            out = []
            for p, q in zip(ps, qs):
                if q is not None:
                    q = np.conj(q)
                    p = (-q if p is None else p - q) if minus else (q if p is None else p + q)
                out.append(None if p is None else factor * p)
            return tuple(out)

        dd = self.dd
        if dd is not None:
            dd = tuple([half(row, [other[i] for other in dd]) for i, row in enumerate(dd)])
        return Jet(value, half(self.d, self.dbar), half(self.dbar, self.d), dd)


def variables(coords, order: int) -> Jet:
    """The coordinates (..., n) as a jet of order 1 or 2: d[i] is the unit vector e_i,
    a row of one read-only identity that every call with the same n shares."""
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order}")
    n = coords.shape[-1]
    units = _UNITS.get(n)
    if units is None:
        eye = np.eye(n)
        eye.flags.writeable = False
        units = _UNITS[n] = tuple(eye)
    none = (None,) * n
    return Jet(coords, units, none, (none,) * n if order == 2 else None)


def along(coords, directions) -> Jet:
    """The coordinates (..., n) as an order-1 jet along the holomorphic
    directions v_1 ... v_k, each (..., n): its part d[r] is v_r, so a
    function g evaluated on it carries d[r] = sum_i v_r^i dg/dz^i. The parts
    never mix, so each is bit for bit that of the jet along v_r alone."""
    directions = tuple(directions)
    return Jet(coords, directions, (None,) * len(directions))


def evaluate(fn, coords, order: int) -> Jet:
    """fn on the coordinates' jet of `order`; a plain array it returns is a
    constant, with exactly zero derivatives."""
    out = fn(variables(coords, order))
    return out if isinstance(out, Jet) else _constant(out, coords.shape[-1], order == 2)


def _constant(value, n, second):
    if np.result_type(value) == object:
        raise TypeError("evaluator returned an object array, not a jet")
    none = (None,) * n
    return Jet(value, none, none, (none,) * n if second else None)


# In the rules below a None part is an exact zero: a sum keeps the other
# term as it is, a difference negates it, and a product with None is None.
# Every part that is not None is the same operation on the same operands,
# in the same order, as the formula written beside it. The helpers below
# take a whole row of parts per call.


def _sums(ps, qs):
    """p + q for each pair of parts."""
    return tuple([q if p is None else p if q is None else p + q for p, q in zip(ps, qs)])


def _differences(ps, qs):
    """p - q for each pair of parts."""
    return tuple([(None if q is None else -q) if p is None else p if q is None else p - q
                  for p, q in zip(ps, qs)])


def _products(ps, c):
    """p * c for each part p, the part first."""
    return tuple([None if p is None else p * c for p in ps])


def _scalings(c, ps):
    """c * p for each part p, the factor first."""
    return tuple([None if p is None else c * p for p in ps])


def _conjugates(ps):
    return tuple([None if p is None else np.conj(p) for p in ps])


def _scaled(u: Jet, c, value) -> Jet:
    """`value` with u's parts times the plain c: u times, or divided by, a constant."""
    dd = None if u.dd is None else tuple([_products(row, c) for row in u.dd])
    return Jet(value, _products(u.d, c), _products(u.dbar, c), dd)


def _add_jets(a, b):
    # a plain operand is a constant: it moves the value and no part
    if not isinstance(b, Jet):
        return Jet(a.value + b, a.d, a.dbar, a.dd)
    if not isinstance(a, Jet):
        return Jet(a + b.value, b.d, b.dbar, b.dd)
    dd = None
    if a.dd is not None and b.dd is not None:
        dd = tuple([_sums(ra, rb) for ra, rb in zip(a.dd, b.dd)])
    return Jet(a.value + b.value, _sums(a.d, b.d), _sums(a.dbar, b.dbar), dd)


def _subtract_jets(a, b):
    if not isinstance(b, Jet):
        return Jet(a.value - b, a.d, a.dbar, a.dd)
    if not isinstance(a, Jet):
        return _add_jets(a, _negative(b))
    dd = None
    if a.dd is not None and b.dd is not None:
        dd = tuple([_differences(ra, rb) for ra, rb in zip(a.dd, b.dd)])
    return Jet(a.value - b.value, _differences(a.d, b.d), _differences(a.dbar, b.dbar), dd)


def _multiply_jets(a, b):
    if not isinstance(b, Jet):
        return _scaled(a, b, a.value * b)
    if not isinstance(a, Jet):
        return _scaled(b, a, a * b.value)
    av, bv = a.value, b.value

    def first(ps, qs):
        # p b + a q
        out = []
        for p, q in zip(ps, qs):
            if p is None:
                out.append(None if q is None else av * q)
            else:
                out.append(p * bv if q is None else p * bv + av * q)
        return tuple(out)

    dd = None
    if a.dd is not None and b.dd is not None:
        # (ab)_{i jbar} = (a_{i jbar} b + (a_i b_jbar + a_jbar b_i)) + a b_{i jbar}
        dd = []
        for adi, bdi, ra, rb in zip(a.d, b.d, a.dd, b.dd):
            row = []
            for ha, hb, adj, bdj in zip(ra, rb, a.dbar, b.dbar):
                x = None if adi is None or bdj is None else adi * bdj
                y = None if adj is None or bdi is None else adj * bdi
                s = y if x is None else x if y is None else x + y
                if ha is not None:
                    s = ha * bv if s is None else ha * bv + s
                if hb is not None:
                    s = av * hb if s is None else s + av * hb
                row.append(s)
            dd.append(tuple(row))
        dd = tuple(dd)
    return Jet(av * bv, first(a.d, b.d), first(a.dbar, b.dbar), dd)


def _divide_jets(a, b):
    if not isinstance(b, Jet):
        return _scaled(a, 1.0 / b, a.value / b)
    if not isinstance(a, Jet):
        a = _constant(a, len(b.d), b.dd is not None)
    q = a.value / b.value
    inv = 1.0 / b.value

    def first(ps, rs):
        # q_i = (a_i - q b_i) / b, as (a_i - q b_i) * inv
        out = []
        for p, r in zip(ps, rs):
            if r is None:
                out.append(None if p is None else p * inv)
            else:
                out.append((-(q * r) if p is None else p - q * r) * inv)
        return tuple(out)

    d, dbar = first(a.d, b.d), first(a.dbar, b.dbar)
    dd = None
    if a.dd is not None and b.dd is not None:
        # q_{i jbar} = ((a_{i jbar} - (q_i b_jbar + q_jbar b_i)) - q b_{i jbar}) / b
        dd = []
        for qi, bdi, ra, rb in zip(d, b.d, a.dd, b.dd):
            row = []
            for ha, hb, qj, bdj in zip(ra, rb, dbar, b.dbar):
                x = None if qi is None or bdj is None else qi * bdj
                y = None if qj is None or bdi is None else qj * bdi
                s = y if x is None else x if y is None else x + y
                s = ha if s is None else -s if ha is None else ha - s
                if hb is not None:
                    s = -(q * hb) if s is None else s - q * hb
                row.append(None if s is None else s * inv)
            dd.append(tuple(row))
        dd = tuple(dd)
    return Jet(q, d, dbar, dd)


def _compose(u: Jet, value, first, second):
    """g(u) from g(u), g'(u) and g''(u) (second unused at order 1):
    parts g' u_i, and (g'' u_i) u_jbar + g' u_{i jbar}."""
    dd = None
    if u.dd is not None:
        dd = []
        for p, row in zip(u.d, u.dd):
            s = None if p is None else second * p
            dd.append(tuple([
                (None if h is None else first * h) if s is None or q is None
                else s * q if h is None else s * q + first * h
                for q, h in zip(u.dbar, row)]))
        dd = tuple(dd)
    return Jet(value, _scalings(first, u.d), _scalings(first, u.dbar), dd)


def _negative(u):
    return _scaled(u, -1.0, -u.value)


def _power(u, p):
    if isinstance(p, Jet) or not isinstance(u, Jet):
        return NotImplemented
    v = u.value
    if np.ndim(p) == 0 and p in (0, 1):  # else p (p - 1) v^(p - 2) is 0 * inf at v = 0
        return u if p else _constant(v ** 0, len(u.d), u.dd is not None)
    second = p * (p - 1) * v ** (p - 2) if u.dd is not None else None
    return _compose(u, v ** p, p * v ** (p - 1), second)


def _logarithm(u, value, base):
    """log(base) for base = u or 1 + u, in the quotient form of its Hessian,
    d dbar log b = (b_{i jbar} - b_i b_jbar / b) / b, as
    inv (b_{i jbar} - (inv b_i) b_jbar) with inv = 1 / b."""
    inv = 1.0 / base
    dd = None
    if u.dd is not None:
        dd = []
        for p, row in zip(u.d, u.dd):
            t = None if p is None else inv * p
            dd.append(tuple([
                (None if h is None else inv * h) if t is None or q is None
                else inv * -(t * q) if h is None else inv * (h - t * q)
                for q, h in zip(u.dbar, row)]))
        dd = tuple(dd)
    return Jet(value, _scalings(inv, u.d), _scalings(inv, u.dbar), dd)


def _log(u):
    return _logarithm(u, np.log(u.value), u.value)


def _log1p(u):
    return _logarithm(u, np.log1p(u.value), 1.0 + u.value)


def _exp(u):
    e = np.exp(u.value)
    return _compose(u, e, e, e)


def _sqrt(u):
    s = np.sqrt(u.value)
    first = 0.5 / s
    return _compose(u, s, first, -0.5 * first / u.value)


def _conjugate(u):
    # conj swaps d and dbar and transposes dd
    dd = u.dd
    if dd is not None:
        dd = tuple([_conjugates([row[i] for row in dd]) for i in range(len(dd))])
    return Jet(np.conj(u.value), _conjugates(u.dbar), _conjugates(u.d), dd)


_UFUNCS = {
    np.add: _add_jets,
    np.subtract: _subtract_jets,
    np.multiply: _multiply_jets,
    np.divide: _divide_jets,
    np.negative: _negative,
    np.positive: lambda u: u,
    np.power: _power,
    np.log: _log,
    np.log1p: _log1p,
    np.exp: _exp,
    np.sqrt: _sqrt,
    np.conjugate: _conjugate,
}

_LIKE = {np.zeros_like: np.zeros, np.ones_like: np.ones}

# a nested jet's value is itself a jet: these read through to the innermost array
_READ = {np.shape: lambda u: u.shape, np.ndim: lambda u: u.ndim,
         np.result_type: lambda u: u.dtype}


# the arithmetic operators call their rules directly, ahead of numpy's ufunc
# dispatch; NDArrayOperatorsMixin supplies the rest
for _op, _rule in (("add", _add_jets), ("sub", _subtract_jets),
                   ("mul", _multiply_jets), ("truediv", _divide_jets)):
    setattr(Jet, f"__{_op}__", _rule)
    setattr(Jet, f"__r{_op}__", lambda a, b, rule=_rule: rule(b, a))
Jet.__neg__ = _negative
