import pytest

from lidkit import submission as sub
from lidkit.errors import AudioFormatError, UnknownLanguage, about, parse_file


def test_about_names_the_source_of_the_same_error():
    fault = AudioFormatError("expected mono")
    with pytest.raises(AudioFormatError) as err:
        with about("a.wav"):
            raise fault
    assert err.value is fault and err.value.__cause__ is None
    assert str(err.value) == "a.wav: expected mono"


def test_other_errors_pass_through_unnamed():
    with pytest.raises(KeyError) as err:
        with about("a.wav"):
            raise KeyError("k")
    assert not hasattr(err.value, "path")


def test_a_file_read_inside_an_outer_about_still_names_the_file(tmp_path):
    path = tmp_path / "key.txt"
    path.write_text("A B\ns1 C\n")
    with pytest.raises(UnknownLanguage) as err:
        with about("--flag"):
            parse_file(path, sub.parse_key)
    assert str(err.value) == f"{path}:2: language 'C' not in header"
