"""Element grammar: parse, render, and the round trip between them."""

import random

import pytest

from ginvlab import ParseError, build_matrix_ring
from ginvlab.errors import UnknownGenerator
from ginvlab.parsing import parse_element, render_elem
from ginvlab.rings import TableRing

from conftest import truncated_polynomials


def test_zmod_literals(z6):
    assert parse_element(z6, "3").index == 3
    assert parse_element(z6, "2 + 3").index == 5
    assert parse_element(z6, "7").index == 1
    assert parse_element(z6, "0").index == 0
    assert parse_element(z6, "1 + 1 + 1").index == 3


def test_matrix_words(m2gf2):
    labels = m2gf2.generator_labels()
    assert parse_element(m2gf2, "e11").index == labels["e11"]
    ident = parse_element(m2gf2, "e11 + e22")
    assert ident == m2gf2.one()
    # juxtaposition multiplies left to right
    assert parse_element(m2gf2, "e11 e12").index == labels["e12"]
    assert parse_element(m2gf2, "e12 e11").index == 0


def test_matrix_coefficients(m2gf3):
    labels = m2gf3.generator_labels()
    two_e12 = parse_element(m2gf3, "2 e12")
    assert two_e12.index == int(m2gf3.scale_index(2, labels["e12"]))
    assert parse_element(m2gf3, "e12 + e12") == two_e12
    assert parse_element(m2gf3, "3 e12").index == 0


def test_table_words(example):
    labels = example.generator_labels()
    assert parse_element(example, "a").index == labels["a"]
    # a juxtaposed word reduces to its basis form
    assert parse_element(example, "a x b").index == labels["axb"]
    assert parse_element(example, "axb").index == labels["axb"]
    assert parse_element(example, "a a").index == 0
    both = parse_element(example, "xa + xb")
    assert both.index == labels["xa"] ^ labels["xb"]


def test_unity_word(z6, example):
    assert parse_element(z6, "1") == z6.one()
    assert parse_element(example, "1") == example.one()
    assert parse_element(example, "1 + a + a") == example.one()
    a, x = (parse_element(example, g) for g in "ax")
    assert parse_element(example, "x 1 a 1 x") == x * a * x == x
    assert parse_element(example, "1 a") == parse_element(example, "a 1") == a
    assert parse_element(example, "3 1 1") == example.one()
    assert parse_element(z6, "5 1") == parse_element(z6, "5")


@pytest.mark.parametrize("bad", ["", "3 +", "+ 3", "a ++ b", "(", "3 4 +"])
def test_parse_errors(example, bad):
    with pytest.raises(ParseError):
        parse_element(example, bad)


def test_unknown_generator(z6, example):
    with pytest.raises(UnknownGenerator):
        parse_element(example, "q")
    with pytest.raises(UnknownGenerator):
        parse_element(z6, "a")


def test_parse_error_carries_position(z6):
    with pytest.raises(ParseError) as info:
        parse_element(z6, "3 +")
    assert "position" in str(info.value)


def test_render_zero_and_one(z6, example):
    assert render_elem(z6.zero()) == "0"
    assert render_elem(z6.one()) == "1"
    assert render_elem(example.zero()) == "0"
    assert render_elem(example.one()) == "1"


def test_render_parse_roundtrip(z4, z6, z30, m2gf2, m2gf3, example):
    rng = random.Random(4)
    for ring in (z4, z6, z30, m2gf2, m2gf3, example):
        picks = {0, 1, ring.size - 1}
        picks.update(rng.randrange(ring.size) for _ in range(40))
        for i in picks:
            e = ring.from_index(i)
            back = parse_element(ring, render_elem(e))
            assert back == e, (ring.kind, i, render_elem(e))


def test_rendered_elements_parse_without_a_product(monkeypatch):
    """A word starts at its first atom, so a canonical rendering (a sum of
    scaled basis labels) parses with no product at all."""
    rng = random.Random(13)
    cases = [(ring, [ring.from_index(rng.randrange(ring.size)) for _ in range(40)])
             for ring in (truncated_polynomials(2, 13), build_matrix_ring(2, 5))]

    def refuse(self, I, J):
        raise AssertionError("parsing a rendering multiplied")

    monkeypatch.setattr(TableRing, "_raw_mul", refuse)
    for ring, elems in cases:
        for e in elems:
            assert parse_element(ring, render_elem(e)) == e
