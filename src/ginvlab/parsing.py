"""Element expressions: a tiny grammar and its canonical renderer.

Grammar:
    expr := term { "+" term }
    term := integer [ word ] | word
    word := atom { atom }        atom := generator label | "1"

Juxtaposed atoms multiply left to right; "1" is the ring unity; a bare
integer is a coefficient on the unity (so "3" works in Z/n and "0" is
zero everywhere).  Whitespace separates atoms but is otherwise free.
The renderer emits one canonical form per element and round-trips
through the parser: the residue in Z/n, and in every other ring the sum
of its nonzero coefficients on the basis labels (the matrix units
e{row}{col} of a matrix ring), a coefficient 1 left out and label "1"
written as its coefficient.
"""

from __future__ import annotations

import re

from .errors import ParseError, UnknownGenerator

LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\+)|(\s+)")


def _tokenize(text: str):
    """Yield (kind, value, position); kind in {'int', 'label', 'plus'}."""
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            out.append(("int", int(m.group(1)), pos))
        elif m.group(2) is not None:
            out.append(("label", m.group(2), pos))
        elif m.group(3) is not None:
            out.append(("plus", "+", pos))
        pos = m.end()
    return out


def parse_element(ring, text: str):
    """Evaluate an element expression in the given ring."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    labels = ring.generator_labels()

    terms: list[list] = [[]]
    for tok in tokens:
        if tok[0] == "plus":
            if not terms[-1]:
                raise ParseError("expected a term before '+'", tok[2])
            terms.append([])
        else:
            terms[-1].append(tok)
    if not terms[-1]:
        last = tokens[-1]
        raise ParseError("expected a term after '+'", last[2] + 1)

    total = None
    for term in terms:
        coeff = 1
        rest = term
        if term[0][0] == "int":
            coeff = term[0][1]
            rest = term[1:]
        value = None  # a word starts at its first atom, not at 1·atom
        for kind, val, pos in rest:
            if kind == "int":
                if val != 1:
                    raise ParseError(f"unexpected integer {val} inside a word", pos)
                continue  # multiplying by unity
            if val not in labels:
                raise UnknownGenerator(f"unknown generator {val!r}", pos)
            atom = ring.from_index(labels[val])
            value = atom if value is None else value * atom
        if value is None:
            value = ring.one()
        scaled = ring.from_index(ring.scale_index(coeff % ring.char, value.index))
        total = scaled if total is None else total + scaled
    return total


def render_elem(e) -> str:
    """Canonical text form; parse_element(ring, render_elem(e)) == e."""
    ring = e.ring
    if ring.kind == "zmod" or e.index == 0:
        return str(e.index)
    return " + ".join(
        str(v) if label == "1" else label if v == 1 else f"{v} {label}"
        for label, v in zip(ring.labels, ring.digits(e.index)) if v)
