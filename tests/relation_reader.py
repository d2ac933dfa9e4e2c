"""A reader for the printed forms of the paper's relations, such as
``N(A1*A2^2,A2) = 14(36-3X-Y)/15``, kept as the reference for the
integer rows of ``linsys.RELATIONS``.

A printed relation is two affine forms joined by ``=``.  Its terms are
integers, entries ``N(labels)`` and the parameters X, Y, A and B; they
combine by ``+``, ``-``, division by a number, parentheses and implicit
multiplication (``27X/40``, ``6(36-X)/5``).  ``read_relation`` returns
left side minus right side as a map from term to ``Fraction``: an entry
under its label text (``"A2,A2"``, ``"D4"``), a parameter under its
letter and the constant under ``1``.
"""

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:N\(([^()]*)\)|(\d+)|([XYAB])|([-+/()=]))")


def _tokens(text):
    pos, out = 0, []
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError("cannot read %r at %d" % (text, pos))
        entry, number, param, op = match.groups()
        if entry is not None:
            out.append(("term", entry))
        elif number is not None:
            out.append(("number", int(number)))
        elif param is not None:
            out.append(("term", param))
        else:
            out.append(("op", op))
        pos = match.end()
    return out


def _combine(a, b, scale=1):
    """a + scale * b, zero terms dropped."""
    out = dict(a)
    for term, c in b.items():
        new = out.get(term, 0) + scale * c
        if new:
            out[term] = new
        else:
            out.pop(term, None)
    return out


def _constant(form):
    if set(form) - {1}:
        raise ValueError("not a number: %r" % form)
    return form.get(1, Fraction(0))


class _Reader:
    def __init__(self, text):
        self.tokens = _tokens(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, op=None):
        token = self.peek()
        if token is None or op is not None and token != ("op", op):
            raise ValueError("expected %r, got %r" % (op, token))
        self.pos += 1
        return token

    def expr(self):
        sign = 1
        if self.peek() in (("op", "+"), ("op", "-")):
            sign = -1 if self.take()[1] == "-" else 1
        form = _combine({}, self.product(), sign)
        while self.peek() in (("op", "+"), ("op", "-")):
            sign = -1 if self.take()[1] == "-" else 1
            form = _combine(form, self.product(), sign)
        return form

    def product(self):
        form = self.factor()
        while True:
            token = self.peek()
            if token == ("op", "/"):
                self.take()
                divisor = _constant(self.factor())
                form = {t: c / divisor for t, c in form.items()}
            elif token is not None and (token[0] != "op"
                                        or token[1] == "("):
                other = self.factor()
                if set(form) - {1}:
                    form, other = other, form
                scale = _constant(form)
                form = {t: scale * c for t, c in other.items() if c}
            else:
                return form

    def factor(self):
        kind, value = self.take()
        if kind == "number":
            return {1: Fraction(value)} if value else {}
        if kind == "term":
            return {value: Fraction(1)}
        if value != "(":
            raise ValueError("unexpected %r" % value)
        form = self.expr()
        self.take(")")
        return form


def read_relation(text):
    """Left side minus right side of a printed relation, term -> Fraction."""
    reader = _Reader(text)
    left = reader.expr()
    reader.take("=")
    right = reader.expr()
    if reader.peek() is not None:
        raise ValueError("trailing %r in %r" % (reader.peek(), text))
    return _combine(left, right, -1)
