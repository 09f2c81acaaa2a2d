"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse dictionary from monomials to nonzero integer
numerators over one positive denominator, in lowest terms; ``terms``
gives the Fraction coefficients.  The variable alphabet is closed
(coordinates, blowup parameters, the differentials dx0..dx3 and curve
symbols, so one grammar reads polynomials and one-forms), and a
monomial is one int: each variable owns a FIELD_BITS-wide exponent
field, earlier variables in higher fields, and the total degree sits
above them all.  Graded-lex comparison is then ``<`` on ints,
multiplying monomials is one int add and the constant monomial is 0.
Degrees past MAX_DEGREE raise OverflowError, so the top bit of every
field stays clear and the sum of two monomials never spills from one
field into the next.  ``exact_divide`` divides by one variable: the
strip of x0 from a generator form, and the division of a blowup stage's
form by its marker h.  Monomials are decoded into (variable index,
exponent) pairs only by ``monomials``, the printer and ``variables``
(once, on the OR of all monomials).  ``Polynomial.substitute`` is the
one substitution; a one-form substitutes as one polynomial, and every
chart of a blowup is one substitution of a stage's divided form.
"""

import math
import re
from fractions import Fraction


# Closed variable alphabet.  Order matters: it defines the graded-lex
# term order used by exact division and by the printer.  dx0..dx3 are
# the differentials, so a printed one-form parses as a polynomial
# linear in them (``extforms.parse_form``).
VARIABLE_NAMES = (
    "x0", "x1", "x2", "x3",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6",
    "b0", "b1", "b2", "b3",
    "u1", "u2", "u3",
    "s0", "s1", "s2", "s3", "s4", "s5",
    "t0", "t1", "t2", "t3", "t4",
    "v0", "v1", "v2", "v3", "v4",
    "z0", "z1", "z2", "z3", "z4", "z5",
    "dx0", "dx1", "dx2", "dx3",
    # The marker of a blowup center: a stage writes each center
    # coordinate y_j as new_j*h and divides one h out (``resolve``).
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
    """acc += a*b on numerator dicts; zero sums and the degree check are
    left for the caller."""
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
    g = math.gcd(den, *nums.values())
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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            return _reduced({m: c * other.numerator
                             for m, c in self.nums.items()},
                            self.den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = {}
        if self.nums and other.nums:
            _check_degree((max(self.nums) >> _DEG_SHIFT)
                          + (max(other.nums) >> _DEG_SHIFT))
            _mul_into(acc, self.nums, other.nums)
        return _reduced(acc, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        _check_degree(self.degree() * exponent)
        result = Polynomial.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    # ---- substitution and derivatives ----

    def substitute(self, mapping):
        """Simultaneously replace variables by polynomials or rationals.

        mapping: {variable name: Polynomial | Fraction | int}.  All
        replacements happen with respect to the original polynomial, so
        substituting x0 -> x1, x1 -> x0 swaps the two variables.

        Values with at most one term fold into each term's monomial:
        zero drops the term, a rational scales it, a one-term polynomial
        scales and shifts it.  The other terms are grouped by their
        exponents in the fields of the remaining values.  The group of
        key 0 has the factor 1 and is added as it is; each other group
        is multiplied once by its product of powers, built once per key
        by multiplying the values in turn.  What a term's
        exponents in the replaced fields do to it is worked out once per
        distinct pattern of those exponents, and the degree is checked
        once, on the largest monomial any product reached.
        """
        folds, fields, mask, zeros, touched = [], [], 0, 0, 0
        for name, val in mapping.items():
            index = VARIABLE_INDEX[name]
            shift = _SHIFT[index]
            touched |= _FIELD << shift
            if isinstance(val, Polynomial):
                nums, den = val.nums, val.den
            elif isinstance(val, (int, Fraction)):
                nums, den = {0: val.numerator} if val else {}, val.denominator
            else:
                raise TypeError("expected an int or Fraction, got %r" % (val,))
            if len(nums) > 1:
                fields.append((shift, (nums, den)))
                mask |= _FIELD << shift
            elif nums:
                (m, c), = nums.items()
                folds.append((shift, m - _VARIABLE_MONO[index], c, den))
            else:
                zeros |= _FIELD << shift
        moves = {}  # exponents in the replaced fields -> _move of them
        groups = {}
        for mono, c in self.nums.items():
            part = mono & touched
            move = moves.get(part)
            if move is None:
                move = moves[part] = _move(part, mask, zeros, fields, folds)
            if not move:
                continue
            group_key, delta, mult = move
            group = groups.get(group_key)
            if group is None:
                group = groups[group_key] = {}
            mono += delta
            group[mono] = group.get(mono, 0) + c * mult
        # Products of powers by key, as (numerators, denominator).
        factors = {0: ({0: 1}, 1)}
        for key, _ in groups:
            if key in factors:
                continue
            factor = None
            for shift, val in fields:
                for _ in range((key >> shift) & _FIELD):
                    factor = val if factor is None else _product(factor, val)
            factors[key] = factor
        return _sum_groups(groups, factors, self.den)

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

    def exact_divide(self, name, context=None):
        """Divide by the variable ``name``, demanding zero remainder.

        A term is divisible when its field of ``name`` is nonzero, and
        its quotient lowers that field by one; the coefficients and the
        denominator stay as they are.  The first term that is not
        divisible raises NotDivisible with ``context``, naming ``name``
        and that term.  The callers are the strip of x0 from a generator
        form and the division of a blowup stage's form by its marker h.
        """
        shift = _SHIFT[VARIABLE_INDEX[name]]
        step = _VARIABLE_MONO[VARIABLE_INDEX[name]]
        quotient = {}
        for mono, c in self.nums.items():
            if not (mono >> shift) & _FIELD:
                raise NotDivisible(
                    "%s does not divide the term %s"
                    % (name, format_poly(Polynomial({mono: c}, self.den))),
                    context=context)
            quotient[mono - step] = c
        return Polynomial(quotient, self.den)

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


def _product(a, b):
    """(numerators, denominator) of a product of two such pairs."""
    acc = {}
    _mul_into(acc, a[0], b[0])
    return acc, a[1] * b[1]


def _sum_groups(groups, factors, den):
    """Polynomial of the sum over ``Polynomial.substitute``'s ``groups``,
    {(key, group denominator): numerators}, each over den times its
    denominator and multiplied by factors[key] = (numerators,
    denominator); the group of key 0 has the factor 1 and is added
    without a product."""
    common = den * math.lcm(*(factors[key][1] * gden for key, gden in groups))
    acc = {}
    for (key, gden), group in groups.items():
        nums, fden = factors[key]
        scale = common // (fden * gden * den)
        if scale != 1:
            group = {m: c * scale for m, c in group.items()}
        if key:
            _mul_into(acc, nums, group)
        elif not acc:
            acc = group
        else:
            for m, c in group.items():
                if m in acc:
                    acc[m] += c
                else:
                    acc[m] = c
    if acc:
        _check_degree(max(acc) >> _DEG_SHIFT)
    return _reduced(acc, common)


def _move(part, mask, zeros, fields, folds):
    """What ``Polynomial.substitute`` does to a term whose exponents in the
    replaced fields are ``part``: ((group key, denominator factor),
    monomial shift, coefficient factor), or () when a zero value kills
    the term.  The shift leaves the key's variables out of the monomial,
    degree included, and folds the one-term values into it."""
    if part & zeros:
        return ()
    key = part & mask
    delta = -key
    for shift, _ in fields:
        delta -= ((key >> shift) & _FIELD) << _DEG_SHIFT
    num = den = 1
    for shift, step, vnum, vden in folds:
        e = (part >> shift) & _FIELD
        if e:
            delta += e * step
            num *= vnum ** e
            den *= vden ** e
    return (key, den), delta, num


def variable_combination(names, polys):
    """The sum of name * poly over the pairs: each poly's numerators,
    shifted by its variable's monomial, accumulate over one common
    denominator."""
    den = math.lcm(*(p.den for p in polys))
    acc = {}
    for name, poly in zip(names, polys):
        step = _VARIABLE_MONO[VARIABLE_INDEX[name]]
        scale = den // poly.den
        for m, c in poly.nums.items():
            m += step
            if m in acc:
                acc[m] += c * scale
            else:
                acc[m] = c * scale
    if acc:
        _check_degree(max(acc) >> _DEG_SHIFT)
    return _reduced(acc, den)


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


# An integer, a name, or any other single character; whitespace between
# tokens is skipped.  Left to ``re`` to compile on first use, so that
# importing the module does no work.
_TOKEN = r"\d+|[^\W\d_]\w*|\S"


class _Tokens:
    def __init__(self, text):
        self.text = text
        found = list(re.finditer(_TOKEN, text))
        self.tokens = [m.group() for m in found] + [None]
        self.starts = [m.start() for m in found] + [len(text)]
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def take_int(self, what):
        tok = self.tokens[self.pos]
        if tok is None or not tok[0].isdigit():
            raise self.error("expected %s" % what)
        self.pos += 1
        return int(tok)

    def error(self, what, at=None):
        """ValueError naming the text and the position of token ``at``,
        by default the next one."""
        at = self.pos if at is None else at
        return ValueError("%s in %r at position %d"
                          % (what, self.text, self.starts[at]))


def parse_poly(text):
    """Parse '+', '-', '*', '^', parentheses, integers and fractions.

    Accepts things like ``3*x0^2*x1 - 1/2*b1^3`` and ``(1/8)*(s0*b1 + 4)``.
    Division is only allowed immediately after an integer literal, so
    fractions parse but general rational functions are rejected.  Every
    malformed text, an unknown name or a zero denominator among them,
    raises ValueError naming the text.
    """
    toks = _Tokens(text)
    poly = _parse_sum(toks)
    if toks.peek() is not None:
        raise toks.error("trailing input")
    return poly


def _parse_sum(toks):
    """Products between top-level signs, each one Polynomial term,
    added over one denominator."""
    terms = []
    sign = 1
    if toks.peek() in ("+", "-"):
        sign = -1 if toks.take() == "-" else 1
    while True:
        mono, coeff, parens = _parse_product(toks)
        coeff *= sign
        if coeff:
            term = Polynomial({mono: coeff.numerator}, coeff.denominator)
            for factor in parens:
                term = term * factor
            terms.append(term)
        if toks.peek() not in ("+", "-"):
            break
        sign = -1 if toks.take() == "-" else 1
    den = math.lcm(*(p.den for p in terms))
    acc = {}
    for p in terms:
        scale = den // p.den
        for mono, c in p.nums.items():
            acc[mono] = acc.get(mono, 0) + c * scale
    return _reduced(acc, den)


def _parse_product(toks):
    """Factors joined by '*', as (packed monomial, rational coefficient,
    [parenthesised factors]): atoms build one term, and only the
    parenthesised factors stay Polynomials."""
    mono, coeff, parens = 0, 1, []
    while True:
        tok = toks.peek()
        if tok is None:
            raise toks.error("unexpected end of input")
        if tok == "(":
            toks.take()
            inner = _parse_sum(toks)
            if toks.peek() != ")":
                raise toks.error("unbalanced parenthesis")
            toks.take()
            parens.append(inner ** _parse_exponent(toks))
        elif tok[0].isdigit():
            value = int(toks.take())
            if toks.peek() == "/":
                toks.take()
                den = toks.take_int("denominator")
                if not den:
                    raise toks.error("zero denominator", toks.pos - 1)
                value = Fraction(value, den)
            coeff *= value ** _parse_exponent(toks)
        elif tok in VARIABLE_INDEX:
            toks.take()
            mono += _VARIABLE_MONO[VARIABLE_INDEX[tok]] * _parse_exponent(toks)
        elif tok[0].isalpha():
            raise toks.error("unknown variable %r" % tok)
        else:
            raise toks.error("unexpected character %r" % tok)
        if toks.peek() != "*":
            break
        toks.take()
    _check_degree(mono >> _DEG_SHIFT)
    return mono, coeff, parens


def _parse_exponent(toks):
    """The integer after an optional '^'; 1 without one."""
    if toks.peek() != "^":
        return 1
    toks.take()
    return toks.take_int("integer exponent")
