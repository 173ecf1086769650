"""Text parsers: a corrupted input raises FormatError and nothing else."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shortgf import (
    FormatError,
    compress_encoding,
    encode_segment,
    even_detector,
    format_circuit,
    format_encoding,
    format_gf,
    format_polyhedron,
    parse_circuit,
    parse_encoding,
    parse_gf,
    parse_pa,
    parse_polyhedron,
    xor_detector,
)

GF_TEXT = (
    "gf nvars=2 index=2\n"
    "term c=1/1 a=0,0 b=1,0;0,1\n"
    "term c=-3/2 a=4,-1 b=1,2\n"
    "term c=1/1 a=2,2 b=\n"
)
POLY_TEXT = "poly n=2\n-1/1 0/1 <= 0/1\n0/1 -1/1 <= 0/1\n1/1 1/1 <= 7/2\n"
PA_TEXT = "E y [0,8) : 5*y >= x+1 | !(2*y < x - 3) & (x = 2*y)"
_ENC = encode_segment(even_detector(1))
TEXTS = {
    "gf": (parse_gf, GF_TEXT),
    "poly": (parse_polyhedron, POLY_TEXT),
    "circuit": (parse_circuit, format_circuit(xor_detector(2))),
    "enc": (parse_encoding, format_encoding(_ENC)),
    "enc packed": (parse_encoding, format_encoding(compress_encoding(_ENC))),
    "pa": (parse_pa, PA_TEXT),
}

# Characters and tokens of the five formats, so that edits often keep a
# line almost well formed.
_ALPHABET = "0123456789-+/=,;:<>()[]!&|* \nabcgnprqxyzANDOT#"
_TOKENS = st.sampled_from(
    ["0", "-1", "1/0", "2/-3", "99", "=", "<=", "<", ",", ";", "\n", " ",
     "term c=1/1 a=0 b=", "#piece 9", "#fr", "#end", "g1", "x0", "NOT", "OR x1"]
)


@st.composite
def mutations(draw, text):
    """Up to three edits, each replacing a short span by a short string."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 6)))
        ins = draw(st.one_of(st.text(_ALPHABET, max_size=3), _TOKENS))
        text = text[:i] + ins + text[j:]
    return text


@pytest.mark.parametrize("fmt", sorted(TEXTS))
def test_valid_text_parses(fmt):
    parse, text = TEXTS[fmt]
    parse(text)


@pytest.mark.parametrize("fmt", sorted(TEXTS))
def test_corrupted_text_raises_only_format_error(fmt):
    parse, text = TEXTS[fmt]

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutations(text))
    def check(mutated):
        try:
            parse(mutated)
        except FormatError:
            pass

    check()


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_circuit, "circuit r=2\ng1 = NOT x\nout g1\n"),
        (parse_polyhedron, "poly n=2\n1 0 <= 3 <= 4\n"),
        (parse_gf, "gf nvars=2 index=1\nterm c=1/1 a=1,2 b=3\n"),
        (parse_gf, "gf nvars=-3 index=0\n"),
        (parse_polyhedron, "poly n=-2\n"),
    ],
    ids=["circuit", "poly", "gf", "gf negative nvars", "poly negative n"],
)
def test_known_bad_inputs(parse, text):
    with pytest.raises(FormatError):
        parse(text)


FORMATS = {
    "gf": format_gf,
    "poly": format_polyhedron,
    "circuit": format_circuit,
    "enc": format_encoding,
    "enc packed": format_encoding,
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_accepted_text_round_trips(fmt):
    """Whatever a parser accepts formats to a text that reads back to itself."""
    parse, text = TEXTS[fmt]
    fmt_text = FORMATS[fmt]

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutations(text))
    def check(mutated):
        try:
            obj = parse(mutated)
        except FormatError:
            return
        once = fmt_text(obj)
        assert fmt_text(parse(once)) == once

    check()
