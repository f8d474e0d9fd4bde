"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are immutable values: a ring is an ordered tuple of variable
names, a monomial is a tuple of non-negative exponents (one per ring
variable), and a polynomial stores a map monomial -> nonzero scalar.
All arithmetic is exact; nothing here ever touches floating point.

Every scalar is canonical: an ``int`` when the rational is integral, and
a ``Fraction`` with denominator > 1 otherwise.  ``canon`` brings any
rational to that form and ``exact_div`` divides into it, so integral
values take the ``int`` arithmetic of the interpreter and never the far
slower ``Fraction`` arithmetic.  The whole package keeps this rule: a
result is never a float and never an integral ``Fraction``.

``Poly(ring, terms)`` makes every coefficient canonical and drops
zeros.  The arithmetic and the division loop here build their results
with ``Poly._make(ring, terms)`` instead, which skips both steps.  Its
invariant: the dict it is given holds only nonzero canonical scalars,
and it becomes the polynomial's own ``terms`` without a copy, so the
caller must not touch it afterwards.  Every sum of terms goes through
``_fold``, which keeps that invariant: a zero sum leaves the dict, and a
sum that lands on an integral ``Fraction`` is stored as its ``int``,
with one ``type(...) is int`` test when it is an int already rather
than a ``canon`` call per term.  Four loops fold inline, each for its
speed: ``term_mul``, which scales, the product loop of
``_sum_of_products``, ``sub_scaled``, the division step, and
``family._drop_var``, which sets one variable to a value.

``_divide`` is the package's one multivariate division loop: ``divmod_multi``
wraps its quotient and remainder terms as polynomials, and Buchberger in
``groebner`` reads remainders, sugar and cofactors off them.
"""
from __future__ import annotations

import re
from fractions import Fraction
from operator import add, neg
from typing import Iterable, Mapping, Sequence

from .record import Record

Mono = tuple  # exponent vector, length == number of ring variables


# ---------------------------------------------------------------------------
# canonical scalars


def canon(x):
    """The canonical form of the rational x: an int when it is integral,
    else a Fraction with denominator > 1.  Anything else ``Fraction``
    accepts (a bool, a string such as "-3/4") is converted exactly; a
    float raises ``TypeError``, so none ever enters a computation."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, float):
            raise TypeError(f"{x!r} is a float, not an exact rational")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_div(a, b):
    """The canonical a / b of two rationals; never the float that ``/``
    gives on two ints.  ``ZeroDivisionError`` when b is zero."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# monomial helpers


def mono_div(a: Mono, b: Mono) -> Mono | None:
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_divides(b: Mono, a: Mono) -> bool:
    return all(y <= x for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a: Mono) -> int:
    return sum(a)


def mono_coprime(a: Mono, b: Mono) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder(Record):
    """A total order on monomials, exposed as a sort key.

    Larger key means larger monomial.  The block order puts the first
    ``block`` variables in a dominating block, which is what ideal
    elimination needs: if the leading monomial of a polynomial avoids
    the block, the whole polynomial does.
    """

    __slots__ = ("name", "block")

    def __init__(self, name: str, block: int = 0):
        if name not in ("degrevlex", "lex", "block"):
            raise ValueError(f"unknown monomial order {name!r}")
        Record.__init__(self, name, block)

    def key(self, m: Mono):
        if self.name == "degrevlex":
            return (sum(m), *map(neg, reversed(m)))
        if self.name == "lex":
            return m
        head, tail = m[: self.block], m[self.block :]
        return (
            sum(head),
            *map(neg, reversed(head)),
            sum(tail),
            *map(neg, reversed(tail)),
        )


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def block_order(first: int) -> MonomialOrder:
    """Elimination order: the first ``first`` ring variables dominate."""
    if first < 0:
        raise ValueError("block size must be non-negative")
    return MonomialOrder("block", first)


# ---------------------------------------------------------------------------
# rings


class Ring:
    """An ordered tuple of variable names fixing the polynomial ring."""

    __slots__ = ("names", "index", "units")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        seen = set()
        for nm in names:
            if not nm or not (nm[0].isalpha() or nm[0] == "_"):
                raise ValueError(f"bad variable name {nm!r}")
            if nm in seen:
                raise ValueError(f"duplicate variable name {nm!r}")
            seen.add(nm)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "index", {nm: i for i, nm in enumerate(names)})
        # units[i] is the exponent vector of the i-th variable
        zeros = (0,) * len(names)
        units = tuple(zeros[:i] + (1,) + zeros[i + 1 :] for i in range(len(names)))
        object.__setattr__(self, "units", units)

    def __setattr__(self, *a):
        raise AttributeError("Ring is immutable")

    @property
    def n(self) -> int:
        return len(self.names)

    def var(self, name: str) -> "Poly":
        return Poly._make(self, {self.units[self.index[name]]: _ONE})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.var(nm) for nm in self.names)

    def zero(self) -> "Poly":
        return Poly._make(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = canon(c)
        if c == 0:
            return self.zero()
        return Poly._make(self, {(0,) * self.n: c})

    def without(self, names: Iterable[str]) -> "Ring":
        drop = set(names)
        missing = drop - set(self.names)
        if missing:
            raise ValueError(f"not ring variables: {sorted(missing)}")
        return Ring(nm for nm in self.names if nm not in drop)

    def adjoin_front(self, names: Iterable[str]) -> "Ring":
        return Ring(tuple(names) + self.names)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Ring({', '.join(self.names)})"


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ("ring", "terms", "_hash", "_lead")

    def __init__(self, ring: Ring, terms: Mapping):
        clean = {}
        for m, c in terms.items():
            c = canon(c)
            if c != 0:
                clean[m] = c
        _set_ring(self, ring)
        _set_terms(self, clean)
        _set_hash(self, None)
        _set_lead(self, None)

    @classmethod
    def _make(cls, ring: Ring, terms: dict) -> "Poly":
        """Wrap ``terms`` as is; every value must be a nonzero canonical
        scalar (an int, or a Fraction with denominator > 1)."""
        p = _new(cls)
        _set_ring(p, ring)
        _set_terms(p, terms)
        _set_hash(p, None)
        _set_lead(p, None)
        return p

    @classmethod
    def _collect(cls, ring: Ring, pairs) -> "Poly":
        """Sum (monomial, nonzero int or Fraction) pairs into a polynomial,
        by the rule of ``_fold``."""
        return cls._make(ring, _fold({}, pairs))

    @classmethod
    def _sum_of_products(cls, ring: Ring, pairs) -> "Poly":
        """The sum of a * b over the pairs of polynomials, with the terms in
        the order that ``acc = acc + a * b`` from the zero polynomial gives.

        Each product is built in its own dict, by the rule of ``_fold``
        written out inline, and then folded into the sum: a product's
        terms can cancel and come back, which moves them to its end,
        before they meet the sum.  A product with a one-term factor has
        distinct monomials, and a product onto an empty sum is the sum
        itself, so those go into the sum directly.  ``a * b`` is this sum
        of the one pair.
        """
        acc: dict = {}
        for a, b in pairs:
            at, bt = a.terms, b.terms
            if not at or not bt:
                continue
            prod = acc if not acc or len(at) == 1 or len(bt) == 1 else {}
            for m1, c1 in at.items():
                for m2, c2 in bt.items():
                    m = tuple(map(add, m1, m2))
                    s = c1 * c2
                    if m in prod:
                        s += prod[m]
                        if not s:
                            del prod[m]
                            continue
                    if type(s) is not int and s.denominator == 1:
                        s = s.numerator
                    prod[m] = s
            if prod is not acc:
                _fold(acc, prod.items())
        return cls._make(ring, acc)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_coefficient(self):
        return self.terms.get((0,) * self.ring.n, 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_monomial(self, order: MonomialOrder = DEGREVLEX) -> Mono:
        # cached for the last order asked; a new order replaces the entry
        lead = self._lead
        if lead is not None and (lead[0] is order or lead[0] == order):
            return lead[1]
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        m = max(self.terms, key=order.key)
        _set_lead(self, (order, m))
        return m

    def leading_coefficient(self, order: MonomialOrder = DEGREVLEX):
        return self.terms[self.leading_monomial(order)]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    # each operator tests ``type(other) is Poly`` first: the Fraction
    # arm of isinstance goes through ABCMeta.__instancecheck__

    def __add__(self, other):
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        return Poly._make(self.ring, _fold(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            return self.term_mul((0,) * self.ring.n, other)
        self._check(other)
        return Poly._sum_of_products(self.ring, ((self, other),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # exact_div(1, 0) raises ZeroDivisionError
        return self * exact_div(1, canon(other))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def term_mul(self, m: Mono, c) -> "Poly":
        """Multiply by the single term c * x^m."""
        c = canon(c)
        if c == 0:
            return self.ring.zero()
        out: dict = {}
        for mm, cc in self.terms.items():
            cc *= c
            if type(cc) is not int and cc.denominator == 1:
                cc = cc.numerator
            out[tuple(map(add, mm, m))] = cc
        return Poly._make(self.ring, out)

    # -- calculus and evaluation -------------------------------------------

    def derivative(self, var: int | str) -> "Poly":
        i = self.ring.index[var] if isinstance(var, str) else var
        out: dict = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                # distinct monomials keep distinct derivatives, so nothing sums
                out[m[:i] + (e - 1,) + m[i + 1 :]] = canon(c * e)
        return Poly._make(self.ring, out)

    def evaluate(self, point: Sequence):
        """The canonical value at a rational point."""
        if len(point) != self.ring.n:
            raise ValueError("point length does not match ring")
        return self._at([canon(v) for v in point])

    def _at(self, point: Sequence):
        """``evaluate`` at a point of the ring's length whose coordinates
        are canonical already; neither is checked."""
        total = 0
        for m, c in self.terms.items():
            val = c
            for x, e in zip(point, m):
                if e:
                    if not x:
                        break  # the term vanishes
                    val *= x if e == 1 else x**e
            else:
                total += val
        return canon(total)

    def rename_ring(self, target: Ring) -> "Poly":
        """Carry the polynomial into a ring with the same variable names.

        Variables may appear at new positions; names absent from the
        target must be unused.  Used to move between a ring and its
        sub- or super-rings.
        """
        if target == self.ring:
            return self
        pos = []
        for i, nm in enumerate(self.ring.names):
            pos.append(target.index.get(nm, -1))
        out: dict = {}
        for m, c in self.terms.items():
            mm = [0] * target.n
            for i, e in enumerate(m):
                if not e:
                    continue
                j = pos[i]
                if j < 0:
                    raise ValueError(
                        f"variable {self.ring.names[i]!r} used but absent from target ring"
                    )
                mm[j] = e
            out[tuple(mm)] = c
        return Poly._make(target, out)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        """Keyed on the ring and the set of monomials, not the
        coefficients: equal polynomials have equal supports, so this is
        consistent with ``__eq__``, and no ``Fraction`` is hashed."""
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.ring, frozenset(self.terms)))
            _set_hash(self, h)
        return h

    def sorted_terms(self, order: MonomialOrder = DEGREVLEX) -> list[tuple]:
        return sorted(self.terms.items(), key=lambda mc: order.key(mc[0]), reverse=True)

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Poly({poly_str(self)})"


_ONE = 1
# Poly.__setattr__ refuses writes; the slot descriptors write past it,
# and faster than object.__setattr__
_new = object.__new__
_set_ring = Poly.ring.__set__
_set_terms = Poly.terms.__set__
_set_hash = Poly._hash.__set__
_set_lead = Poly._lead.__set__


def _fold(out: dict, pairs) -> dict:
    """Add (monomial, nonzero int or Fraction) pairs into ``out`` in place,
    and return it.

    A pair on a monomial of ``out`` adds to its coefficient, which keeps
    its place; a zero sum leaves ``out``, so a monomial that cancels and
    comes back goes last.  An integral Fraction, given or summed, is
    stored as its int, so ``out`` keeps the ``_make`` invariant.
    """
    for m, c in pairs:
        if m in out:
            c += out[m]
            if not c:
                del out[m]
                continue
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        out[m] = c
    return out


def sub_scaled(work: dict, terms: Mapping, quot: Mono, c, skip: Mono):
    """work -= c * x^quot * terms, in place, leaving out the term at ``skip``.

    A division step passes its divisor's leading monomial as ``skip``:
    that term cancels the one the caller has already taken out of
    ``work``.  Zero sums are removed and integral ones stored as ints,
    so ``work`` keeps the ``_make`` invariant.
    """
    for mm, cc in terms.items():
        if mm == skip:
            continue
        t = tuple(map(add, mm, quot))
        v = -(cc * c)
        if t in work:
            v += work[t]
            if not v:
                del work[t]
                continue
        if type(v) is not int and v.denominator == 1:
            v = v.numerator
        work[t] = v


def _divide(
    p: Poly, divisors: Sequence[Poly], order: MonomialOrder
) -> tuple[dict[int, dict], dict]:
    """The division loop: p = sum(q_i * divisors[i]) + r.

    Returns the terms of each nonzero q_i, keyed by i, and the terms of
    r, all keeping the ``_make`` invariant.  The largest term left is
    cancelled by the first divisor whose leading monomial divides it,
    or else moved to r.
    """
    quotients: dict[int, dict] = {}
    lead = [(d.leading_monomial(order), d.leading_coefficient(order)) for d in divisors]
    r_terms: dict = {}
    work = dict(p.terms)
    key = order.key
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for i, (lm, lc) in enumerate(lead):
            quot = mono_div(m, lm)
            if quot is not None:
                coeff = exact_div(c, lc)
                q = quotients.get(i)
                if q is None:
                    quotients[i] = q = {}
                q[quot] = coeff
                sub_scaled(work, divisors[i].terms, quot, coeff, lm)
                break
        else:
            r_terms[m] = c
    return quotients, r_terms


def divmod_multi(
    p: Poly, divisors: Sequence[Poly], order: MonomialOrder
) -> tuple[list[Poly], Poly]:
    """Multivariate division: p = sum(q_i * divisors_i) + r.

    No monomial of r is divisible by any divisor's leading monomial,
    and the quotients make the identity exact.
    """
    quotients, r_terms = _divide(p, divisors, order)
    qs = [Poly._make(p.ring, quotients.get(i) or {}) for i in range(len(divisors))]
    return qs, Poly._make(p.ring, r_terms)


def divide_exact(p: Poly, d: Poly) -> Poly | None:
    """Exact quotient p / d, or None when d does not divide p.

    A one-term divisor c·x^u divides term by term: each exponent drops
    by u and each coefficient is divided by c, or copied when c is 1.
    Distinct monomials keep distinct quotients, so nothing sums, and the
    quotient is None as soon as one term lacks x^u.  Any other divisor
    goes through ``divmod_multi``: d divides p exactly when the
    remainder is zero.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if len(d.terms) != 1:
        (q,), r = divmod_multi(p, [d], DEGREVLEX)
        return q if r.is_zero() else None
    ((u, lc),) = d.terms.items()
    unit = lc == 1
    q: dict = {}
    for m, c in p.terms.items():
        quot = mono_div(m, u)
        if quot is None:
            return None
        q[quot] = c if unit else exact_div(c, lc)
    return Poly._make(p.ring, q)


# ---------------------------------------------------------------------------
# parsing and printing
#
# Grammar (whitespace ignored):
#   expr    ::= ['+'|'-'] product (('+'|'-') product)*
#   product ::= factor ('*' factor)*
#   factor  ::= atom ['^' nonneg-int]
#   atom    ::= rational | name | '(' expr ')'
#   rational::= int ['/' positive-int]
# Multiplication is always explicit; 'xy' is a single name.

from .errors import PolyParseError

_NAME_TAIL = re.compile(r"\w*")  # the characters ch.isalnum() or ch == "_"


def _lex(text: str) -> list[tuple[str, str, int]]:
    """Tokens (kind, text, offset) of polynomial text, ending with "end".

    An int is a run of the digits ``int`` reads (ch.isdecimal()); any
    other digit, such as "²", is an unexpected character."""
    toks = []
    n = len(text)
    pos = 0
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch.isdecimal():
            start = pos
            pos += 1
            while pos < n and text[pos].isdecimal():
                pos += 1
            toks.append(("int", text[start:pos], start))
        elif ch.isalpha() or ch == "_":
            end = _NAME_TAIL.match(text, pos + 1).end()
            toks.append(("name", text[pos:end], pos))
            pos = end
        elif ch in "+-*^()/":
            toks.append((ch, ch, pos))
            pos += 1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", pos)
    toks.append(("end", "", n))
    return toks


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse polynomial text over the given ring's variables.

    The rationals and variable powers of a product multiply into one
    term; only parenthesised groups go through ``Poly`` arithmetic.  Each
    term may open with one sign, after a binary ``+`` or ``-`` too, as in
    ``x + -1*y``.  The terms come out in the order that left-to-right
    ``Poly`` arithmetic on the same text gives them.
    """
    toks = _lex(text)
    index = ring.index
    n = ring.n
    i = 0

    def expect(kind: str):
        nonlocal i
        tok = toks[i]
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        i += 1
        return tok

    def exponent() -> int | None:
        # the '^ nonneg-int' after an atom, if any
        nonlocal i
        if toks[i][0] != "^":
            return None
        i += 1
        if toks[i][0] == "-":
            raise PolyParseError("negative exponent", toks[i][2])
        return int(expect("int")[1])

    def parse_product() -> dict:
        nonlocal i
        coeff = _ONE
        mono = [0] * n
        group = None
        while True:
            tok = toks[i]
            kind = tok[0]
            i += 1
            if kind == "int":
                c = int(tok[1])
                if toks[i][0] == "/":
                    i += 1
                    den_tok = expect("int")
                    den = int(den_tok[1])
                    if den == 0:
                        raise PolyParseError("zero denominator", den_tok[2])
                    c = exact_div(c, den)
                e = exponent()
                coeff = canon(coeff * (c if e is None else c**e))
            elif kind == "name":
                v = index.get(tok[1])
                if v is None:
                    raise PolyParseError(f"undeclared variable {tok[1]!r}", tok[2])
                e = exponent()
                mono[v] += 1 if e is None else e
            elif kind == "(":
                g = Poly._make(ring, parse_expr())
                expect(")")
                e = exponent()
                if e is not None:
                    g = g**e
                group = g if group is None else group * g
            else:
                raise PolyParseError(f"expected a term, found {tok[1]!r}", tok[2])
            if toks[i][0] != "*":
                break
            i += 1
        if not coeff:
            return {}
        if group is None:
            return {tuple(mono): coeff}
        return group.term_mul(tuple(mono), coeff).terms

    def parse_expr() -> dict:
        # the products are summed into one dict, as p + q and p - q would
        nonlocal i
        out: dict = {}
        negate = False
        while True:
            # one sign may open each term, as in "-x" and "x + -1*y"
            kind = toks[i][0]
            if kind == "-" or kind == "+":
                negate = negate != (kind == "-")
                i += 1
            terms = parse_product().items()
            _fold(out, ((m, -c) for m, c in terms) if negate else terms)
            kind = toks[i][0]
            if kind != "+" and kind != "-":
                return out
            negate = kind == "-"
            i += 1

    result = Poly._make(ring, parse_expr())
    end = toks[i]
    if end[0] != "end":
        raise PolyParseError(f"trailing input {end[1]!r}", end[2])
    return result


def _mono_str(m: Mono, ring: Ring) -> str:
    parts = []
    for nm, e in zip(ring.names, m):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append(f"{nm}^{e}")
    return "*".join(parts)


def poly_str(p: Poly) -> str:
    """Canonical text form; terms in descending degrevlex order.

    parse_poly(poly_str(p), p.ring) == p for every p.
    """
    if p.is_zero():
        return "0"
    chunks = []
    for i, (m, c) in enumerate(p.sorted_terms(DEGREVLEX)):
        mono = _mono_str(m, p.ring)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(chunks)
