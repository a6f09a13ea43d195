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
"""

from __future__ import annotations

import numpy as np


def _add(a, b):
    return b if a is None else a if b is None else a + b


def _sub(a, b):
    return (None if b is None else -b) if a is None else a if b is None else a - b


def _mul(a, b):
    return None if a is None or b is None else a * b


def _conj(a):
    return None if a is None else np.conj(a)


def _table(rows):
    return tuple(tuple(row) for row in rows)


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
    """A batched value with its Wirtinger derivatives; see the module docstring."""

    __slots__ = ("value", "d", "dbar", "dd")

    def __init__(self, value, d, dbar, dd=None):
        self.value = value
        self.d = tuple(d)
        self.dbar = tuple(dbar)
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

        def take(part):
            return _take(part, last)

        dd = None if self.dd is None else _table(map(take, row) for row in self.dd)
        return Jet(self.value[key], map(take, self.d), map(take, self.dbar), dd)

    @property
    def real(self):
        """Re f = (f + conj f) / 2."""
        return self._half(self.value.real, 0.5, _add)

    @property
    def imag(self):
        """Im f = (f - conj f) / 2i."""
        return self._half(self.value.imag, -0.5j, _sub)

    def _half(self, value, factor, combine):
        """`value` with the parts factor * (f combine conj f)."""
        def half(p, q):
            return _mul(factor, combine(p, _conj(q)))
        n = len(self.d)
        dd = None if self.dd is None else _table(
            (half(self.dd[i][j], self.dd[j][i]) for j in range(n)) for i in range(n))
        return Jet(value, map(half, self.d, self.dbar), map(half, self.dbar, self.d), dd)


def variables(coords, order: int) -> Jet:
    """The coordinates (..., n) as a jet of order 1 or 2: d[i] is the unit vector e_i."""
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order}")
    n = coords.shape[-1]
    none = (None,) * n
    return Jet(coords, np.eye(n), none, _table([none] * n) if order == 2 else None)


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
    return Jet(value, none, none, _table([none] * n) if second else None)


def _both_second(a, b):
    return a.dd is not None and b.dd is not None


def _scaled(u: Jet, c, value) -> Jet:
    """`value` with u's parts times the plain c: u times, or divided by, a constant."""
    dd = None if u.dd is None else _table((_mul(h, c) for h in row) for row in u.dd)
    return Jet(value, (_mul(p, c) for p in u.d), (_mul(p, c) for p in u.dbar), dd)


def _add_jets(a, b):
    # a plain operand is a constant: it moves the value and no part
    if not isinstance(b, Jet):
        return Jet(a.value + b, a.d, a.dbar, a.dd)
    if not isinstance(a, Jet):
        return Jet(a + b.value, b.d, b.dbar, b.dd)
    dd = _table(map(_add, ra, rb) for ra, rb in zip(a.dd, b.dd)) if _both_second(a, b) else None
    return Jet(a.value + b.value, map(_add, a.d, b.d), map(_add, a.dbar, b.dbar), dd)


def _subtract_jets(a, b):
    if not isinstance(b, Jet):
        return Jet(a.value - b, a.d, a.dbar, a.dd)
    if not isinstance(a, Jet):
        return _add_jets(a, _negative(b))
    dd = _table(map(_sub, ra, rb) for ra, rb in zip(a.dd, b.dd)) if _both_second(a, b) else None
    return Jet(a.value - b.value, map(_sub, a.d, b.d), map(_sub, a.dbar, b.dbar), dd)


def _multiply_jets(a, b):
    if not isinstance(b, Jet):
        return _scaled(a, b, a.value * b)
    if not isinstance(a, Jet):
        return _scaled(b, a, a * b.value)
    av, bv = a.value, b.value

    def first(p, q):
        return _add(_mul(p, bv), _mul(av, q))

    dd = None
    if _both_second(a, b):
        # (ab)_{i jbar} = a_{i jbar} b + (a_i b_jbar + a_jbar b_i) + a b_{i jbar}
        dd = _table((_add(_add(_mul(ha, bv), _add(_mul(a.d[i], b.dbar[j]),
                                                  _mul(a.dbar[j], b.d[i]))),
                          _mul(av, hb))
                     for j, (ha, hb) in enumerate(zip(ra, rb)))
                    for i, (ra, rb) in enumerate(zip(a.dd, b.dd)))
    return Jet(av * bv, map(first, a.d, b.d), map(first, a.dbar, b.dbar), dd)


def _divide_jets(a, b):
    if not isinstance(b, Jet):
        return _scaled(a, 1.0 / b, a.value / b)
    if not isinstance(a, Jet):
        a = _constant(a, len(b.d), b.dd is not None)
    q = a.value / b.value
    inv = 1.0 / b.value
    # q_i = (a_i - q b_i) / b, and q_{i jbar} = (a_{i jbar} - (q_i b_jbar + q_jbar b_i)
    # - q b_{i jbar}) / b
    d = tuple(_mul(_sub(p, _mul(q, r)), inv) for p, r in zip(a.d, b.d))
    dbar = tuple(_mul(_sub(p, _mul(q, r)), inv) for p, r in zip(a.dbar, b.dbar))
    dd = None
    if _both_second(a, b):
        dd = _table((_mul(_sub(_sub(ha, _add(_mul(d[i], b.dbar[j]), _mul(dbar[j], b.d[i]))),
                               _mul(q, hb)), inv)
                     for j, (ha, hb) in enumerate(zip(ra, rb)))
                    for i, (ra, rb) in enumerate(zip(a.dd, b.dd)))
    return Jet(q, d, dbar, dd)


def _compose(u: Jet, value, first, second):
    """g(u) from g(u), g'(u) and g''(u) (second unused at order 1)."""
    dd = None
    if u.dd is not None:
        lead = [_mul(second, p) for p in u.d]
        dd = _table((_add(_mul(s, q), _mul(first, h)) for q, h in zip(u.dbar, row))
                    for s, row in zip(lead, u.dd))
    return Jet(value, (_mul(first, p) for p in u.d), (_mul(first, p) for p in u.dbar), dd)


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
    d dbar log b = (b_{i jbar} - b_i b_jbar / b) / b."""
    inv = 1.0 / base
    dd = None
    if u.dd is not None:
        lead = [_mul(inv, p) for p in u.d]
        dd = _table((_mul(inv, _sub(h, _mul(t, q))) for q, h in zip(u.dbar, row))
                    for t, row in zip(lead, u.dd))
    return Jet(value, (_mul(inv, p) for p in u.d), (_mul(inv, p) for p in u.dbar), dd)


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
    dd = None if u.dd is None else _table(
        (_conj(u.dd[j][i]) for j in range(len(u.d))) for i in range(len(u.d)))
    return Jet(np.conj(u.value), map(_conj, u.dbar), map(_conj, u.d), dd)


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
