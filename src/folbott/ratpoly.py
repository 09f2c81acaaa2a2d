"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse dictionary from monomials to nonzero integer
numerators over one positive denominator, in lowest terms; ``terms``
gives the Fraction coefficients.  The variable alphabet is closed, so a
monomial is one int: each variable owns a FIELD_BITS-wide exponent
field, earlier variables in higher fields, and the total degree sits
above them all.  Graded-lex comparison is then ``<`` on ints,
multiplying monomials is one int add and the constant monomial is 0.
Degrees past MAX_DEGREE raise OverflowError, so the top bit of every
field stays clear and serves as the guard bit of the divisibility test
in ``exact_divide``.  Monomials are decoded into (variable index,
exponent) pairs only by ``leading``, ``monomials``, the printer and
``variables`` (once, on the OR of all monomials).
"""

import heapq
import math
from fractions import Fraction


# Closed variable alphabet.  Order matters: it defines the graded-lex
# term order used by exact division and by the printer.
VARIABLE_NAMES = (
    "x0", "x1", "x2", "x3",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6",
    "b0", "b1", "b2", "b3",
    "u1", "u2", "u3",
    "s0", "s1", "s2", "s3", "s4", "s5",
    "t0", "t1", "t2", "t3", "t4",
    "v0", "v1", "v2", "v3", "v4",
    "z0", "z1", "z2", "z3", "z4", "z5",
    "w0", "w1", "w2", "w3",
    "h",
    "y0", "y1", "y2", "y3",
)

VARIABLE_INDEX = {name: i for i, name in enumerate(VARIABLE_NAMES)}

FIELD_BITS = 8
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1
_NVARS = len(VARIABLE_NAMES)
_SHIFT = tuple(FIELD_BITS * (_NVARS - 1 - i) for i in range(_NVARS))
_DEG_SHIFT = FIELD_BITS * _NVARS
_EXPONENTS = (1 << _DEG_SHIFT) - 1
_GUARDS = sum(1 << (FIELD_BITS * f + FIELD_BITS - 1)
              for f in range(_NVARS + 1))
# Packed monomial of each single variable: exponent 1, total degree 1.
_VARIABLE_MONO = tuple((1 << s) + (1 << _DEG_SHIFT) for s in _SHIFT)


class NotDivisible(ArithmeticError):
    """Raised when exact division leaves a remainder.

    Carries enough context to say which division failed when raised
    from inside a blowup pipeline.
    """

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected an int or Fraction, got %r" % (value,))


def _check_degree(degree):
    if degree > MAX_DEGREE:
        raise OverflowError("monomial degree %d exceeds the packed limit %d"
                            % (degree, MAX_DEGREE))


def _decode(mono):
    """(variable index, exponent) pairs of a packed monomial, by index."""
    pairs = []
    mono &= _EXPONENTS
    while mono:
        shift = (mono.bit_length() - 1) // FIELD_BITS * FIELD_BITS
        e = mono >> shift
        pairs.append((_NVARS - 1 - shift // FIELD_BITS, e))
        mono -= e << shift
    return tuple(pairs)


def _mul_into(acc, a, b):
    """acc += a*b on numerator dicts; zero sums are left for the caller."""
    if len(a) < len(b):
        a, b = b, a
    if b:
        _check_degree((max(a) >> _DEG_SHIFT) + (max(b) >> _DEG_SHIFT))
    for m2, c2 in b.items():
        for m1, c1 in a.items():
            m = m1 + m2
            if m in acc:
                acc[m] += c1 * c2
            else:
                acc[m] = c1 * c2


def _reduced(nums, den):
    """Polynomial of nums / den with zeros dropped, in lowest terms."""
    if not all(nums.values()):
        nums = {m: c for m, c in nums.items() if c}
    g = math.gcd(den, *nums.values()) if den != 1 else 1
    if g != 1:
        nums = {m: c // g for m, c in nums.items()}
    return Polynomial(nums, den // g)


class Polynomial:
    """Immutable-by-convention sparse polynomial with rational coefficients."""

    __slots__ = ("nums", "den")

    def __init__(self, nums=None, den=1):
        self.nums = {} if nums is None else nums
        self.den = den

    @property
    def terms(self):
        """{monomial: nonzero Fraction coefficient}."""
        return {m: Fraction(c, self.den) for m, c in self.nums.items()}

    # ---- constructors ----

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, value):
        value = _as_fraction(value)
        if value == 0:
            return cls({})
        return cls({0: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, name):
        if name not in VARIABLE_INDEX:
            raise KeyError("unknown variable %r" % name)
        return cls({_VARIABLE_MONO[VARIABLE_INDEX[name]]: 1})

    @classmethod
    def monomial(cls, exponents, coeff=1):
        """Build coeff * prod(var**exp) from a {name: exp} mapping."""
        coeff = _as_fraction(coeff)
        if coeff == 0:
            return cls({})
        mono = 0
        for name, e in exponents.items():
            if e < 0:
                raise ValueError("negative exponent for %s" % name)
            mono += e * _VARIABLE_MONO[VARIABLE_INDEX[name]]
        _check_degree(mono >> _DEG_SHIFT)
        return cls({mono: coeff.numerator}, coeff.denominator)

    # ---- basic structure ----

    def is_zero(self):
        return not self.nums

    def is_constant(self):
        return not self.nums or (len(self.nums) == 1 and 0 in self.nums)

    def constant_value(self):
        if not self.nums:
            return Fraction(0)
        if len(self.nums) == 1 and 0 in self.nums:
            return Fraction(self.nums[0], self.den)
        raise ValueError("polynomial is not constant: %s" % self)

    def variables(self):
        seen = 0
        for mono in self.nums:
            seen |= mono
        return {VARIABLE_NAMES[i] for i, _ in _decode(seen)}

    def degree(self):
        return max(self.nums) >> _DEG_SHIFT if self.nums else -1

    def leading(self):
        """Leading (monomial pairs, coefficient) in graded-lex order."""
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.nums)
        return _decode(mono), Fraction(self.nums[mono], self.den)

    def monomials(self):
        """Yield (monomial pairs, coefficient), graded-lex descending."""
        for mono in sorted(self.nums, reverse=True):
            yield _decode(mono), Fraction(self.nums[mono], self.den)

    # ---- arithmetic ----

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        scale, other_scale = den // self.den, den // other.den
        nums = {m: c * scale for m, c in self.nums.items()}
        for m, c in other.nums.items():
            nums[m] = nums.get(m, 0) + c * other_scale
        return _reduced(nums, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            return _reduced({m: c * other.numerator
                             for m, c in self.nums.items()},
                            self.den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = {}
        _mul_into(acc, self.nums, other.nums)
        return _reduced(acc, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        _check_degree(self.degree() * exponent)
        result = Polynomial.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.nums.items()), self.den))

    # ---- substitution and evaluation ----

    def substitute(self, mapping):
        """Simultaneously replace variables by polynomials or rationals.

        mapping: {variable name: Polynomial | Fraction | int}.  All
        replacements happen with respect to the original polynomial, so
        substituting x0 -> x1, x1 -> x0 swaps the two variables.
        """
        return substitute_all((self,), mapping)[0]

    def evaluate(self, mapping):
        """Substitute and require a rational result."""
        return self.substitute(mapping).constant_value()

    def partial(self, name):
        """Partial derivative with respect to one variable."""
        shift = _SHIFT[VARIABLE_INDEX[name]]
        step = _VARIABLE_MONO[VARIABLE_INDEX[name]]
        nums = {}
        for mono, c in self.nums.items():
            e = (mono >> shift) & _FIELD
            if e:
                nums[mono - step] = c * e
        return _reduced(nums, self.den)

    def coefficients_in(self, names):
        """Collect coefficients with respect to a set of variables.

        Returns {exponent tuple aligned with ``names``: Polynomial in
        the remaining variables}.
        """
        shifts = [_SHIFT[VARIABLE_INDEX[n]] for n in names]
        out = {}
        for mono, c in self.nums.items():
            key = []
            for shift in shifts:
                e = (mono >> shift) & _FIELD
                mono -= (e << shift) + (e << _DEG_SHIFT)
                key.append(e)
            out.setdefault(tuple(key), {})[mono] = c
        return {k: _reduced(v, self.den) for k, v in out.items()}

    # ---- division ----

    def exact_divide(self, divisor, context=None):
        """Divide by another polynomial, demanding zero remainder.

        Heap division of the numerators by the divisor's primitive
        part, so an exact quotient has integer coefficients (Gauss's
        lemma): the remainder is one dict whose monomials wait in a
        max-heap, and each quotient term subtracts its multiple of the
        divisor's tail in place.  m is divisible by the leading monomial
        d when (m | guards) - d keeps every guard bit set.  Raises
        NotDivisible the moment a leading term fails to reduce.
        """
        if isinstance(divisor, (int, Fraction)):
            d = _as_fraction(divisor)
            if d == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / d)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        content = math.gcd(*divisor.nums.values())
        dmono = max(divisor.nums)
        dlead = divisor.nums[dmono] // content
        tail = [(m - dmono, -c // content) for m, c in divisor.nums.items()
                if m != dmono]
        remainder = dict(self.nums)
        heap = [-m for m in remainder]
        heapq.heapify(heap)
        quotient = {}
        while heap:
            mono = -heapq.heappop(heap)
            coeff, rest = divmod(remainder.pop(mono), dlead)
            if not coeff and not rest:
                continue
            if rest or ((mono | _GUARDS) - dmono) & _GUARDS != _GUARDS:
                raise NotDivisible(
                    "%s does not divide %s" % (divisor, self), context=context)
            quotient[mono - dmono] = coeff * divisor.den
            # Every tail monomial is below dmono, so every new pending
            # monomial is below the one just reduced.
            for offset, c in tail:
                m = mono + offset
                if m in remainder:
                    remainder[m] += coeff * c
                else:
                    remainder[m] = coeff * c
                    heapq.heappush(heap, -m)
        return _reduced(quotient, self.den * content)

    def proportional(self, other):
        """Ratio self / other if the two differ by a rational scalar.

        Returns the Fraction ratio, or None when no single ratio works.
        Two zero polynomials count as proportional with ratio 1; a zero
        against a nonzero does not.
        """
        if self.is_zero() and other.is_zero():
            return Fraction(1)
        if self.is_zero() or other.is_zero():
            return None
        m1 = max(self.nums)
        if m1 != max(other.nums):
            return None
        ratio = Fraction(self.nums[m1] * other.den, self.den * other.nums[m1])
        if self == other * ratio:
            return ratio
        return None

    # ---- text ----

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "Polynomial(%s)" % format_poly(self)


def substitute_all(polys, mapping):
    """``Polynomial.substitute`` of one mapping into several polynomials.

    Values with one term fold into each term's monomial.  The other
    terms are grouped by their exponents in the fields of the remaining
    values, and each group is multiplied once by its product of powers;
    those products are shared by all the polynomials.
    """
    folds, fields, mask, zeros = [], [], 0, 0
    for name, val in mapping.items():
        if not isinstance(val, Polynomial):
            val = Polynomial.constant(val)
        shift = _SHIFT[VARIABLE_INDEX[name]]
        if not val.nums:
            zeros |= _FIELD << shift
        elif len(val.nums) == 1:
            (m, c), = val.nums.items()
            folds.append((shift, m - _VARIABLE_MONO[VARIABLE_INDEX[name]],
                          c, val.den))
        else:
            fields.append((shift, val))
            mask |= _FIELD << shift
    # Products of powers by key, each built on the key's leading fields.
    powers = {(shift, 1): val for shift, val in fields}
    factors, out = {0: (Polynomial.constant(1), 0)}, []
    for poly in polys:
        groups = {}
        for mono, c in poly.nums.items():
            if mono & zeros:
                continue
            key, den = mono & mask, poly.den
            rest = mono - key
            for shift, step, num, vden in folds:
                e = (mono >> shift) & _FIELD
                if e:
                    rest += e * step
                    c *= num ** e
                    den *= vden ** e
            group = groups.setdefault((key, den), {})
            group[rest] = group.get(rest, 0) + c
        for key, _ in groups:
            prefix = 0
            for shift, val in fields:
                e = (key >> shift) & _FIELD
                if e and prefix + (e << shift) not in factors:
                    for k in range(2, e + 1):
                        if (shift, k) not in powers:
                            powers[shift, k] = powers[shift, k - 1] * val
                    factor, degree = factors[prefix]
                    factors[prefix + (e << shift)] = (
                        factor * powers[shift, e], degree + e)
                prefix += e << shift
        common = math.lcm(*(factors[k][0].den * den for k, den in groups))
        acc = {}
        for (key, den), group in groups.items():
            factor, degree = factors[key]
            # The rest still carries the key's share of the degree field.
            scale, degree = common // (factor.den * den), degree << _DEG_SHIFT
            _mul_into(acc, factor.nums,
                      {m - degree: c * scale for m, c in group.items()})
        out.append(_reduced(acc, common))
    return out


def format_poly(poly):
    """Deterministic rendering, graded-lex descending."""
    if poly.is_zero():
        return "0"
    parts = []
    for mono, coeff in poly.monomials():
        factors = []
        for idx, e in mono:
            if e == 1:
                factors.append(VARIABLE_NAMES[idx])
            else:
                factors.append("%s^%d" % (VARIABLE_NAMES[idx], e))
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = "%s*%s" % (mag, body)
        parts.append((coeff < 0, piece))
    out = []
    for i, (neg, piece) in enumerate(parts):
        if i == 0:
            out.append("-" + piece if neg else piece)
        else:
            out.append(" - " + piece if neg else " + " + piece)
    return "".join(out)


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_name(self):
        start = self.pos
        while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def take_int(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])


def parse_poly(text):
    """Parse '+', '-', '*', '^', parentheses, integers and fractions.

    Accepts things like ``3*x0^2*x1 - 1/2*b1^3`` and ``(1/8)*(s0*b1 + 4)``.
    Division is only allowed immediately after an integer literal, so
    fractions parse but general rational functions are rejected.
    """
    toks = _Tokens(text)
    poly = _parse_sum(toks)
    if toks.peek() is not None:
        raise ValueError("trailing input in %r at position %d" % (text, toks.pos))
    return poly


def _parse_sum(toks):
    ch = toks.peek()
    negate = False
    if ch in ("+", "-"):
        toks.pos += 1
        negate = ch == "-"
    acc = _parse_product(toks)
    if negate:
        acc = -acc
    while True:
        ch = toks.peek()
        if ch == "+":
            toks.pos += 1
            acc = acc + _parse_product(toks)
        elif ch == "-":
            toks.pos += 1
            acc = acc - _parse_product(toks)
        else:
            return acc


def _parse_product(toks):
    acc = _parse_power(toks)
    while True:
        ch = toks.peek()
        if ch == "*":
            toks.pos += 1
            acc = acc * _parse_power(toks)
        else:
            return acc


def _parse_power(toks):
    base = _parse_atom(toks)
    if toks.peek() == "^":
        toks.pos += 1
        if toks.peek() is None or not toks.peek().isdigit():
            raise ValueError("expected integer exponent")
        return base ** toks.take_int()
    return base


def _parse_atom(toks):
    ch = toks.peek()
    if ch is None:
        raise ValueError("unexpected end of input")
    if ch == "(":
        toks.pos += 1
        inner = _parse_sum(toks)
        if toks.peek() != ")":
            raise ValueError("unbalanced parenthesis")
        toks.pos += 1
        return inner
    if ch.isdigit():
        num = toks.take_int()
        if toks.peek() == "/":
            toks.pos += 1
            if toks.peek() is None or not toks.peek().isdigit():
                raise ValueError("expected denominator")
            den = toks.take_int()
            return Polynomial.constant(Fraction(num, den))
        return Polynomial.constant(num)
    if ch.isalpha():
        name = toks.take_name()
        return Polynomial.variable(name)
    raise ValueError("unexpected character %r" % ch)

