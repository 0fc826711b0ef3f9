"""Exact truncated power series over arbitrary-precision integers.

All generating-function recurrences of the toolkit live here: the
register-bounded tree series, the branch moment series, the reduction-degree
path series and the bivariate fringe series.  The tree families and the
iterates sigma_r of sigma(z) = z^2/(1-2z)^2 each solve one functional
equation f_{r+1} = a + b * f_r(sigma), so one stage engine, ``_stages``,
computes them all from a table of (seed, a, b) entries; every public
function reads its result off the stages of one pass.  The path families
are read off sigma's stages: L_r = sum_{k <= r} 4^(k+1) sigma_k, and the
bivariate fringe series H_r, stored as one TruncatedSeries per v-degree,
has [v^m] H_r = 4^(r+m) sigma_r^m, so the fringe moments are H_r's
moments in v.  No floating point is used in this module.
"""

import math

from .errors import DomainError

__all__ = [
    "TruncatedSeries",
    "BivariateSeries",
    "sigma_series",
    "sigma_iterate",
    "base_series",
    "b_r_series",
    "b_r_equal_series",
    "f1_series",
    "f2_series",
    "l_r_series",
    "l_r_equal_series",
    "branch_total_series",
    "h_r_bivariate",
    "catalan",
]


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


class TruncatedSeries:
    """Coefficients c_0..c_N of a formal power series, exact integers."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = tuple(coeffs)

    @classmethod
    def from_terms(cls, order, terms):
        """Build from {exponent: coefficient}, zero elsewhere."""
        c = [0] * (order + 1)
        for k, v in terms.items():
            if 0 <= k <= order:
                c[k] = v
        return cls(c)

    @property
    def order(self):
        return len(self.c) - 1

    def __getitem__(self, n):
        return self.c[n]

    def __len__(self):
        return len(self.c)

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        shown = ", ".join(str(x) for x in self.c[:8])
        more = ", ..." if len(self.c) > 8 else ""
        return f"TruncatedSeries([{shown}{more}], order={self.order})"

    def valuation(self):
        """Index of the first nonzero coefficient; order+1 if all zero."""
        for i, x in enumerate(self.c):
            if x:
                return i
        return len(self.c)

    def _check(self, other):
        if self.order != other.order:
            raise DomainError("series orders differ")

    def __add__(self, other):
        self._check(other)
        return TruncatedSeries([a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        self._check(other)
        return TruncatedSeries([a - b for a, b in zip(self.c, other.c)])

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries([a * other for a in self.c])
        self._check(other)
        n = len(self.c)
        a, b = self.c, other.c
        out = [0] * n
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def compose(self, inner):
        """self(inner(z)), truncated; inner must have valuation >= 1."""
        self._check(inner)
        if inner.valuation() == 0:
            raise DomainError("composition needs a series without constant term")
        n = len(self.c)
        out = TruncatedSeries([self.c[-1]] + [0] * (n - 1))
        for k in range(n - 2, -1, -1):
            out = out * inner
            out = TruncatedSeries((out.c[0] + self.c[k],) + out.c[1:])
        return out


def _one(order):
    return TruncatedSeries.from_terms(order, {0: 1})


def _z(order):
    return TruncatedSeries.from_terms(order, {1: 1})


def _zero(order):
    return TruncatedSeries([0] * (order + 1))


def sigma_series(order):
    """z^2/(1-2z)^2; coefficient of z^n is (n-1)*2^(n-2) for n >= 2."""
    c = [0] * (order + 1)
    for n in range(2, order + 1):
        c[n] = (n - 1) << (n - 2)
    return TruncatedSeries(c)


_BASE_NAMES = ("catalan_B", "inv_sqrt_1m4z", "F0_second", "chain_C", "L_all")


def base_series(name, order):
    """Seed series with known closed-form integer coefficients."""
    c = [0] * (order + 1)
    if name == "catalan_B":
        for n in range(order + 1):
            c[n] = catalan(n)
    elif name == "inv_sqrt_1m4z":
        for n in range(order + 1):
            c[n] = math.comb(2 * n, n)
    elif name == "F0_second":
        for n in range(1, order + 1):
            c[n] = 2 * (2 * n - 1) * math.comb(2 * n - 2, n - 1)
    elif name == "chain_C":
        for n in range(1, order + 1):
            c[n] = 1 << (n - 1)
    elif name == "L_all":
        for n in range(1, order + 1):
            c[n] = 4**n
    else:
        raise DomainError(f"unknown base series {name!r}; know {_BASE_NAMES}")
    return TruncatedSeries(c)


def _chain(order):
    return base_series("chain_C", order)


# Every tree family and sigma_r solve f_{k+1} = a + b * f_k(sigma) from f_0 = seed.
# Each entry builds (seed, a, b) at one order; b is a series or an integer.
_RECURRENCES = {
    "B": lambda o: (_one(o), _one(o), _chain(o)),
    "F1": lambda o: (base_series("inv_sqrt_1m4z", o), _zero(o), _chain(o)),
    "F2": lambda o: (base_series("F0_second", o), _zero(o), _chain(o)),
    "sigma": lambda o: (_z(o), _zero(o), 1),
}


def _stages(family, r, order):
    """The stages f_0..f_r of one family's sigma-recurrence, in order.

    The list ends at the first stage equal to the one before it, a fixed
    point that every later stage equals, so [-1] is still f_r and [-1] -
    [-2] still f_r - f_{r-1}.  Every family reaches one within
    order.bit_length() + 2 stages, so a huge r costs no more than that.
    """
    if r < 0:
        raise DomainError("r must be nonnegative")
    f, a, b = _RECURRENCES[family](order)
    sig = sigma_series(order)
    stages = [f]
    for _ in range(r):
        f = a + b * f.compose(sig)
        stages.append(f)
        if f == stages[-2]:
            break
    return stages


def sigma_iterate(r, order):
    """r-fold composition of sigma with itself (r = 0 gives z)."""
    return _stages("sigma", r, order)[-1]


def b_r_series(r, order):
    """Trees reducible to a leaf in at most r steps (register <= r)."""
    return _stages("B", r, order)[-1]


def b_r_equal_series(r, order):
    """Trees with register exactly r; the constant series 1 for r = 0."""
    stages = _stages("B", r, order)
    # f_r - f_{r-1}, with f_{-1} = 0
    return stages[-1] - stages[-2] if len(stages) > 1 else stages[0]


def f1_series(r, order):
    """Sum over all size-n trees of the number of r-branches, per n."""
    return _stages("F1", r, order)[-1]


def f2_series(r, order):
    """Sum over all size-n trees of (#r-branches)(#r-branches - 1), per n."""
    return _stages("F2", r, order)[-1]


def l_r_series(r, order):
    """Paths with reduction degree <= r: sum_{k <= r} 4^(k+1) sigma_k."""
    total = _zero(order)
    for k, s in enumerate(_stages("sigma", r, order)):
        total = total + 4 ** (k + 1) * s
    return total


def l_r_equal_series(r, order):
    """Paths with reduction degree exactly r: 4^(r+1) sigma_r."""
    s = sigma_iterate(r, order)
    if s.valuation() > order:
        return s  # sigma_r = O(z^(2^r)): no path this short reduces r times
    return 4 ** (r + 1) * s


def branch_total_series(order):
    """Sum over all size-n trees of the total branch count, per n.

    A size-n tree has no r-branch once 2^r - 1 > n, so the sum stops at
    the largest r with 2^r - 1 <= order.
    """
    total = _zero(order)
    for f in _stages("F1", (order + 1).bit_length() - 1, order):
        total = total + f
    return total


class BivariateSeries:
    """Series in z whose coefficients are integer polynomials in v.

    Coefficient storage: cols[m] is the TruncatedSeries [v^m], so every
    operation in z runs column by column on the univariate engine.
    """

    __slots__ = ("cols",)

    def __init__(self, cols):
        self.cols = tuple(cols)

    def row(self, n):
        """[z^n] as {v-degree: coefficient}, nonzero coefficients only."""
        return {m: c[n] for m, c in enumerate(self.cols) if c[n]}

    def __eq__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self.cols == other.cols

    def compose_z(self, inner):
        """Substitute z -> inner(z); v is untouched."""
        return BivariateSeries(c.compose(inner) for c in self.cols)

    def eval_moment(self, which="first"):
        """Collapse v: first moment sum m*c, or sum m^2*c ("second_raw")."""
        power = {"first": 1, "second_raw": 2}.get(which)
        if power is None:
            raise DomainError(f"unknown moment {which!r}")
        terms = (m**power * c for m, c in enumerate(self.cols))
        return sum(terms, _zero(self.cols[0].order))


def h_r_bivariate(r, order):
    """Bivariate fringe series: v marks the r-th fringe size, z the length.

    H_0 = sum_{m >= 1} (4zv)^m and H_{k+1} = 4 H_k(sigma(z), v), so
    [v^m] H_r = 4^(r+m) sigma_r^m.  The powers stop at the first one that
    vanishes below the order; every later column is zero too.
    """
    s = sigma_iterate(r, order)
    cols, power = [_zero(order)] * (order + 1), s
    for m in range(1, order + 1):
        if power.valuation() > order:
            break
        cols[m] = 4 ** (r + m) * power
        power = power * s
    return BivariateSeries(cols)
