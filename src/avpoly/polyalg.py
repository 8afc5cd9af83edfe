"""Exact arithmetic kernel: Catalan numbers, sparse polynomials in q,
and truncated series in t with polynomial coefficients.

Coefficients are Python ints (arbitrary precision); exact rationals are
``fractions.Fraction``. All values are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

import re

__all__ = ["Poly", "Series", "catalan"]


# ---------------------------------------------------------------------------
#  Catalan numbers
# ---------------------------------------------------------------------------

_catalan_table = [1]


def catalan(k: int) -> int:
    """k-th Catalan number binom(2k, k)/(k+1); memoized, O(n) multiplications.
    The memo is extended in a copy, then published by rebinding it, so it
    needs no lock: its values are deterministic, and a thread that loses a
    race only costs a recomputation. An extension at least doubles the
    memo, so calls for k = 0, 1, 2, ... in turn copy it O(log k) times."""
    global _catalan_table
    if k < 0:
        raise ValueError("catalan: k must be >= 0")
    t = _catalan_table
    if k >= len(t):
        t = t.copy()
        # C_{m+1} = C_m * 2(2m+1)/(m+2); the division is always exact
        for m in range(len(t) - 1, max(k, 2 * len(t) - 1)):
            t.append(t[m] * (4 * m + 2) // (m + 2))
        _catalan_table = t
    return t[k]


# ---------------------------------------------------------------------------
#  Sparse polynomials in q
# ---------------------------------------------------------------------------

# compiled by `re` on first use and cached there; only `Poly.from_text` reads it
_TERM = r"(?:([0-9]+)\*?)?q(?:\^([0-9]+))?"


class Poly:
    """Sparse polynomial in q, mapping exponent -> nonzero int coefficient.

    Zero coefficients are never stored, so structurally equal polynomials
    compare and hash equal. Instances are immutable by convention; every
    operation returns a new polynomial.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c: dict[int, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, v in items:
                if e < 0:
                    raise ValueError(f"negative exponent {e}")
                nv = c.get(e, 0) + v
                if nv:
                    c[e] = nv
                elif e in c:
                    del c[e]
        self._c = c

    # -- inspection --------------------------------------------------------

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def items(self):
        """Unordered (exponent, coefficient) view; use terms() for sorted."""
        return self._c.items()

    def terms(self) -> list[tuple[int, int]]:
        return sorted(self._c.items())

    def degree(self) -> int:
        """Largest exponent, or -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def moment(self, r: int = 0) -> int:
        """Sum of c_e * e^r over all stored terms (r=0 gives the total mass)."""
        if r == 0:
            return sum(self._c.values())
        return sum(c * e**r for e, c in self._c.items())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        """No command adds; the benchmark's tracer wraps it (ROADMAP direction 14)."""
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly([*self._c.items(), *other._c.items()])

    def __mul__(self, other: "Poly") -> "Poly":
        """No command multiplies; the benchmark's tracer wraps it (ROADMAP direction 14)."""
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly([(e1 + e2, c1 * c2) for e1, c1 in self._c.items() for e2, c2 in other._c.items()])

    # -- identity ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"

    # -- external forms ----------------------------------------------------

    def to_text(self) -> str:
        """Human form: "c*q^e" terms joined by " + ", ascending; unit
        coefficients omitted; the zero polynomial is "0"."""
        if not self._c:
            return "0"
        parts = []
        for e, c in self.terms():
            parts.append(f"q^{e}" if c == 1 else f"{c}*q^{e}")
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "Poly":
        s = text.strip()
        if s == "0":
            return cls()
        pairs = []
        for raw in s.split("+"):
            # spaces may stand around "*", "^" and "q", never inside a number
            term = raw if re.search("[0-9] +[0-9]", raw) else raw.replace(" ", "")
            if not term:
                raise ValueError(f"empty term in polynomial {text!r}")
            m = re.fullmatch(_TERM, term)
            if m:
                coeff = int(m.group(1)) if m.group(1) else 1
                exp = int(m.group(2)) if m.group(2) else 1
            elif term.isascii() and term.isdigit():
                coeff, exp = int(term), 0
            else:
                raise ValueError(f"cannot parse polynomial term {raw.strip()!r}")
            pairs.append((exp, coeff))
        return cls(pairs)

    def to_pairs(self) -> list[list]:
        """JSON form: [[exponent, coefficient-as-decimal-string], ...] ascending."""
        return [[e, str(c)] for e, c in self.terms()]

    @classmethod
    def from_pairs(cls, pairs) -> "Poly":
        """Inverse of to_pairs: a list of [exponent, coefficient] pairs,
        each entry an int or a decimal string (see `exact_int`). Any
        other shape or value raises ValueError."""
        if not isinstance(pairs, (list, tuple)):
            raise ValueError(f"expected a list of [exponent, coefficient] pairs, got {pairs!r:.40}")
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"expected an [exponent, coefficient] pair, got {pair!r:.40}")
        return cls((exact_int(e), exact_int(c)) for e, c in pairs)


def exact_int(value) -> int:
    """`value` if it is an int, or the int a decimal string spells (the
    form `Poly.to_pairs` writes coefficients in): ASCII digits after an
    optional "-", nothing else. Anything else, floats and bools included,
    raises ValueError instead of being truncated; so do the spellings
    `int` also reads, such as " 5", "+5", "1_0" and non-ASCII digits."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        digits = value.removeprefix("-")
        if digits.isascii() and digits.isdigit():
            return int(value)
    raise ValueError(f"expected an integer, got {value!r:.40}")


# ---------------------------------------------------------------------------
#  Truncated series in t with Poly coefficients
# ---------------------------------------------------------------------------


class Series:
    """Series in t truncated at a fixed order; coefficient of t^p is a Poly.

    Every binary operation requires equal truncation orders. No command
    uses it; the benchmark's tracer wraps `__mul__` (ROADMAP direction 14).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if order < 0:
            raise ValueError("series order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"series of order {order} needs {order + 1} coefficients, "
                f"got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __mul__(self, other: "Series") -> "Series":
        """Cauchy product truncated at the common order."""
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        out = []
        for p in range(self.order + 1):
            acc = Poly()
            for i in range(p + 1):
                a, b = self.coeffs[i], other.coeffs[p - i]
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return Series(self.order, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        inner = ", ".join(f"[t^{p}] {c.to_text()}" for p, c in enumerate(self.coeffs))
        return f"Series(order={self.order}: {inner})"
