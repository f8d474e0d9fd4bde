"""The model-file grammar and the builder that turns files into models."""

from fractions import Fraction

import pytest

from equiblow import ModelFileError, build_model, load_model_file, parse_model_text
from ref import REFUSALS

GOOD = """
# comment lines and blank lines are ignored
variables = [x, y]
weights = [[1, -1]]
potential = "1/2*x^2*y^2"
basepoint = [0, 0]
"""


def test_minimal_potential_file_builds():
    built = build_model(parse_model_text(GOOD))
    assert built.ring.names == ("x", "y")
    assert built.weights.rows == ((1, -1),)
    assert built.model is not None
    assert built.source.basepoint == (Fraction(0), Fraction(0))


def test_ideal_file_builds_without_a_model():
    text = """
variables = [x, y]
weights = [[1, -1]]
ideal = ["x^2", "x*y", "y^2"]
"""
    built = build_model(parse_model_text(text))
    assert built.model is None
    assert len(built.ideal.generators) == 3


def test_potential_and_ideal_are_mutually_exclusive():
    text = """
variables = [x]
weights = [[1]]
potential = "x^2"
ideal = ["x"]
"""
    with pytest.raises(ModelFileError):
        parse_model_text(text)


def test_one_of_potential_or_ideal_is_required():
    text = """
variables = [x]
weights = [[1]]
"""
    with pytest.raises(ModelFileError):
        parse_model_text(text)


def test_duplicate_keys_are_rejected():
    text = GOOD + "\nvariables = [z]\n"
    with pytest.raises(ModelFileError):
        parse_model_text(text)


def test_unknown_keys_are_rejected():
    with pytest.raises(ModelFileError):
        parse_model_text(GOOD + "\ncolour = [red]\n")


def test_weight_row_width_must_match_variables():
    text = """
variables = [x, y]
weights = [[1, -1, 0]]
potential = "x*y"
"""
    with pytest.raises(ModelFileError):
        build_model(parse_model_text(text))


def test_non_invariant_potential_is_a_file_error():
    text = """
variables = [x, y]
weights = [[1, -1]]
potential = "x + y"
"""
    with pytest.raises(ModelFileError):
        build_model(parse_model_text(text))


def test_unparseable_polynomial_is_a_file_error():
    text = """
variables = [x]
weights = [[1]]
potential = "x +"
"""
    with pytest.raises(ModelFileError):
        build_model(parse_model_text(text))


def test_base_parameter_must_have_weight_zero():
    text = """
variables = [x, y, t]
weights = [[1, -1, 1]]
potential = "x*y"
base_parameter = t
"""
    with pytest.raises(ModelFileError):
        parse_model_text(text)


def test_basepoint_length_must_match():
    text = """
variables = [x, y]
weights = [[1, -1]]
potential = "x*y"
basepoint = [0]
"""
    with pytest.raises(ModelFileError):
        parse_model_text(text)


def test_fractional_basepoints_parse():
    text = """
variables = [x, y]
weights = [[1, -1]]
potential = "x*y"
basepoint = [1/2, -3/4]
"""
    mf = parse_model_text(text)
    assert mf.basepoint == (Fraction(1, 2), Fraction(-3, 4))


def test_multi_line_lists_parse():
    text = """
variables = [
    x,
    y,
]
weights = [[1, -1]]
ideal = [
    "x^2",
    "y^2",
]
"""
    built = build_model(parse_model_text(text))
    assert built.ring.names == ("x", "y")
    assert len(built.ideal.generators) == 2


def test_comparison_section_rank_must_match_the_frames():
    text = """
variables = [x, y]
weights = [[1, -1]]
potential = "x*y"
section = ["y"]
"""
    with pytest.raises(ModelFileError):
        build_model(parse_model_text(text))


def test_missing_file_is_a_file_error(tmp_path):
    with pytest.raises(ModelFileError):
        load_model_file(str(tmp_path / "absent.kb"))


@pytest.mark.parametrize(
    "value", ["[1/0, 0]", "[a, 0]", "[[1], 0]", '["1/0", 0]', '["1/2", 0]', "[1.5, 0]"]
)
def test_bad_basepoint_rationals_are_file_errors(value):
    text = f"""
variables = [x, y]
weights = [[1, -1]]
potential = "x*y"
basepoint = {value}
"""
    with pytest.raises(ModelFileError):
        parse_model_text(text)


def test_zero_denominator_is_a_file_error_in_any_list():
    with pytest.raises(ModelFileError, match="zero denominator"):
        parse_model_text("variables = [x]\nweights = [[1/0]]\nideal = [\"x\"]\n")


@pytest.mark.parametrize("body, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_refusal_has_its_exact_message(body, message):
    with pytest.raises(ModelFileError) as refusal:
        build_model(parse_model_text(body))
    assert str(refusal.value) == message
