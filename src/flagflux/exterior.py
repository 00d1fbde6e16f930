"""Exact exterior algebra over an indexed basis, plus Malcev notation.

A Form is a sparse alternating form with int/Fraction coefficients; a
MalcevPresentation is a nilpotent Lie algebra written as the tuple of
differentials (de^1, ..., de^n) of the dual basis.  The sign convention
throughout is de^k(X,Y) = -e^k([X,Y]), i.e. for [e_i,e_j] = sum c^k_ij e_k
one has de^k = -sum_{i<j} c^k_ij e^{ij}.

Examples::

    >>> parse_malcev("(0,0,-e^{12})").differentials[2]
    Form('-e^{12}')
    >>> print_form(wedge(parse_form("e^{1}"), parse_form("e^{2}")))
    'e^{12}'
"""

from collections.abc import Mapping
from fractions import Fraction
from operator import itemgetter, lt

from . import _kernel
from ._kernel import exact, integer, integers

__all__ = [
    "Form",
    "MalcevPresentation",
    "MalcevSyntaxError",
    "MalcevValueError",
    "wedge",
    "interior",
    "ce_diff",
    "parse_form",
    "print_form",
    "parse_malcev",
    "print_malcev",
]


class MalcevSyntaxError(ValueError):
    """Raised on malformed Malcev text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class MalcevValueError(ValueError):
    """Raised when well-formed input violates a range or filtration rule."""


class Form:
    """Sparse exterior form: degree plus {increasing index tuple: coeff}.

    Every form is built by ``Form(degree, terms)``, which ``from_terms``,
    ``parse_form``, ``parse_malcev`` and the form arithmetic (+, -, scalar *,
    wedge, interior, ce_diff) all call.  It checks that terms is a mapping
    (None, the default, is the zero form), the degree and the key indices
    (``_kernel.integer`` and ``integers``), that each key is strictly
    increasing from 1 with as many indices as the degree, and every
    coefficient (``_kernel.exact``), and drops zeros, into a dict of its own.
    ``terms`` is never written to after construction.  Code that only needs
    term maps, such as the images of d that rank and Jacobi read, calls the
    kernel and builds no form.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        degree = integer(degree, "degree")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.degree = degree
        if type(terms) is not dict and not isinstance(terms, Mapping):
            if terms is not None:
                raise TypeError("terms must be a mapping, got %r" % (terms,))
            terms = {}
        clean = {}
        for key, c in terms.items():
            key = integers(key, "key indices")
            if len(key) != degree:
                raise ValueError("key %r does not match degree %d" % (key, degree))
            if not all(map(lt, (0,) + key, key)):
                raise ValueError("key %r is not strictly increasing from 1" % (key,))
            c = exact(c)
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def from_terms(cls, degree, items):
        """Build from (indices, coeff) pairs, normalizing order with signs.

        Each index is merged into the sorted key in turn, so the sign is
        that of the sorting permutation, and 0 on a repeated index; they
        are checked first, so a bool is not merged as a repeat of 1.
        """
        acc = {}
        for indices, c in items:
            key, sign = (), 1
            for i in integers(indices, "key indices"):
                key, step = _kernel.merge_indices(key, (i,))
                sign *= step
            if sign == 0:
                continue
            acc[key] = acc.get(key, 0) + sign * exact(c)
        return cls(degree, acc)

    @classmethod
    def zero(cls, degree=0):
        return cls(degree, {})

    @classmethod
    def basis(cls, *indices):
        """e^{i1...ik} for the given indices (order normalized with sign)."""
        return cls.from_terms(len(indices), [(tuple(indices), 1)])

    def is_zero(self):
        return not self.terms

    def max_index(self):
        if not self.degree:
            return 0
        return max(map(itemgetter(-1), self.terms), default=0)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if not isinstance(other, Form):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        return Form(self.degree, _kernel.add_terms(self.terms, other.terms, sign))

    def __neg__(self):
        return Form(self.degree, _kernel.scale_terms(self.terms, -1))

    def __mul__(self, scalar):
        return Form(self.degree, _kernel.scale_terms(self.terms, exact(scalar)))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return "Form(%r)" % print_form(self)


def wedge(f, g):
    """Exterior product; terms with a repeated index cancel."""
    return Form(f.degree + g.degree, _kernel.wedge_terms(f.terms, g.terms))


def interior(x_index, f):
    """Contraction in the first slot: (interior(x, f))(...) = f(e_x, ...)."""
    x_index = integer(x_index, "index")
    if x_index < 1:
        raise ValueError("index %d is below 1: basis indices start at 1" % x_index)
    if f.degree == 0:
        return Form.zero(0)
    return Form(f.degree - 1, _kernel.interior_terms(x_index, f.terms))


def ce_diff(p, f):
    """Chevalley-Eilenberg differential of f for the presentation p."""
    if f.max_index() > p.dim:
        raise MalcevValueError("form references index beyond dim %d" % p.dim)
    return Form(f.degree + 1, _kernel.ce_terms(p._dterms, f.terms))


class MalcevPresentation:
    """Nilpotent Lie algebra as the differentials of its dual basis.

    differentials[k-1] is de^k, a 2-form supported on indices < k; that
    filtration rule is what makes the notation well founded, and the
    constructor checks it on every presentation.  Jacobi (d after d = 0) is
    not enforced here, so a presentation can be any filtered tuple;
    jacobi_check reports it, and AdmissibleTriple, the input of dualization
    and the target search, rejects a failure.
    A presentation is treated as immutable: it keeps the term maps of its
    differentials and, in ``_invariants``, the basis-independent invariants
    computed for it so far (see tduality.fingerprint), both freed with it.
    There, ``"lie": True`` marks a Lie algebra where the library builds one
    (a flag nilradical, a dual), and AdmissibleTriple skips the Jacobi check
    for it: checking its source and its dual would add about a tenth to the
    library time of a flag correspondence of A2-A5.  The certificate's
    correspondence algebra is never marked, since it is built from the dual
    that the certificate checks.
    """

    __slots__ = ("dim", "differentials", "_dterms", "_invariants")

    def __init__(self, differentials):
        diffs = tuple(differentials)
        for k, f in enumerate(diffs, start=1):
            if not isinstance(f, Form) or f.degree != 2:
                raise MalcevValueError("entry %d is not a 2-form" % k)
            top = f.max_index()
            if top >= k:
                raise MalcevValueError(
                    "de^%d references index %d; only indices below %d are allowed"
                    % (k, top, k)
                )
        self.dim = len(diffs)
        self.differentials = diffs
        self._dterms = tuple(f.terms for f in diffs)
        self._invariants = {}

    def structure_constants(self):
        """{(i,j,k): c^k_ij} for [e_i,e_j] = sum_k c^k_ij e_k, i < j."""
        consts = {}
        for k, f in enumerate(self.differentials, start=1):
            for (i, j), t in f.terms.items():
                consts[(i, j, k)] = -t
        return consts

    def is_abelian(self):
        return all(f.is_zero() for f in self.differentials)

    def __eq__(self, other):
        if not isinstance(other, MalcevPresentation):
            return NotImplemented
        return self.differentials == other.differentials

    def __hash__(self):
        return hash(self.differentials)

    def __repr__(self):
        return "MalcevPresentation(%r)" % print_malcev(self)


class _Scanner:
    def __init__(self, text):
        if not isinstance(text, str):
            raise TypeError("text must be a str, got %r" % (text,))
        # the unicode minus shows up when tuples are pasted from print
        self.text = text.replace("−", "-")
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def expect(self, ch):
        got = self.peek()
        if got != ch:
            self.fail("expected %r" % ch)
        self.pos += 1

    def fail(self, message):
        raise MalcevSyntaxError(message, self.pos)

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        return int(self.text[start:self.pos])

    def rational(self):
        num = self.integer()
        if self.peek() == "/":
            self.pos += 1
            den = self.integer()
            if den == 0:
                self.fail("zero denominator")
            return Fraction(num, den)
        return num

    def indices(self):
        out = []
        while True:
            ch = self.peek()
            if ch.isdigit():
                self.pos += 1
                if ch == "0":
                    self.fail("basis indices start at 1")
                out.append(int(ch))
            elif ch == "(":
                self.pos += 1
                val = self.integer()
                self.expect(")")
                if val < 1:
                    self.fail("basis indices start at 1")
                out.append(val)
            else:
                break
        if not out:
            self.fail("expected at least one index")
        return tuple(out)

    def term(self):
        coeff = 1
        if self.peek().isdigit():
            coeff = self.rational()
        self.expect("e")
        self.expect("^")
        self.expect("{")
        idx = self.indices()
        self.expect("}")
        return idx, coeff

    def sign(self):
        """-1 or 1 for a "-" or "+", which is consumed; 1 for neither."""
        ch = self.peek()
        if ch in ("+", "-"):
            self.pos += 1
        return -1 if ch == "-" else 1

    def signed_sum(self):
        items = []
        sign = self.sign()
        while True:
            idx, coeff = self.term()
            items.append((idx, sign * coeff))
            if self.peek() not in ("+", "-"):
                return items
            sign = self.sign()

    def entry(self):
        if self.peek() == "0":
            self.pos += 1
            nxt = self.peek()
            if nxt not in (",", ")", ""):
                self.fail("unexpected text after 0 entry")
            return []
        return self.signed_sum()


def parse_form(text, degree=None):
    """Parse a single signed sum (or "0") into a Form.

    With degree=None the degree is taken from the terms, which must agree;
    a bare "0" then parses as the zero 3-form, the common flux case.  A
    0-form (degree=0) is a lone signed rational, as print_form writes it.
    """
    degree = None if degree is None else integer(degree, "degree")
    sc = _Scanner(text)
    items = [((), sc.sign() * sc.rational())] if degree == 0 else sc.entry()
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.fail("trailing input")
    if not items:
        return Form.zero(3 if degree is None else degree)
    lengths = {len(idx) for idx, _ in items}
    if len(lengths) > 1:
        raise MalcevValueError("mixed term degrees %s in one form" % sorted(lengths))
    deg = lengths.pop()
    if degree is not None and deg != degree:
        raise MalcevValueError("expected a %d-form, got degree %d" % (degree, deg))
    return Form.from_terms(deg, items)


def _fmt_coeff(c):
    if c == 1:
        return ""
    if c == -1:
        return "-"
    return str(c)


def _fmt_indices(key):
    return "".join(str(i) if i < 10 else "(%d)" % i for i in key)


def print_form(f):
    """Canonical text: terms sorted by index tuple; a 0-form is its coefficient."""
    if not f.terms:
        return "0"
    if not f.degree:
        return str(f.terms[()])
    parts = []
    for key in sorted(f.terms):
        piece = "%se^{%s}" % (_fmt_coeff(f.terms[key]), _fmt_indices(key))
        if parts and not piece.startswith("-"):
            parts.append("+")
        parts.append(piece)
    return "".join(parts)


def parse_malcev(text, dim=None):
    """Parse a Malcev tuple; dim, when given, left-pads zero entries.

    "()" is the 0-dimensional algebra.  Rejects indices outside 1..dim and
    any de^k touching an index >= k.
    """
    dim = None if dim is None else integer(dim, "dim")
    sc = _Scanner(text)
    sc.expect("(")
    entries = []
    if sc.peek() != ")":
        entries.append(sc.entry())
        while sc.peek() == ",":
            sc.pos += 1
            entries.append(sc.entry())
    sc.expect(")")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.fail("trailing input")

    if dim is None:
        dim = len(entries)
    elif len(entries) > dim:
        raise MalcevValueError(
            "%d entries but declared dim %d" % (len(entries), dim)
        )
    entries = [[] for _ in range(dim - len(entries))] + entries

    diffs = []
    for k, items in enumerate(entries, start=1):
        for idx, _ in items:
            if len(idx) != 2:
                raise MalcevValueError("entry %d has a non-2-form term" % k)
            if max(idx) > dim:
                raise MalcevValueError(
                    "entry %d references index %d beyond dim %d" % (k, max(idx), dim)
                )
        diffs.append(Form.from_terms(2, items))
    return MalcevPresentation(diffs)


def print_malcev(p):
    """Inverse of parse_malcev up to term ordering."""
    return "(%s)" % ",".join(print_form(f) for f in p.differentials)
