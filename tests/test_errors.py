import pytest

from lidkit import submission as sub
from lidkit.errors import (
    AudioFormatError, MalformedLine, UnknownLanguage, about, parse_file, read_back,
)


def key_fields(key):
    return key.language_list, list(key.entries.items())


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


def test_read_back_returns_text_the_reader_gives_back():
    text = "A B\ns1 A\ns2 OOS\n"
    key = sub.TrialKey(["A", "B"], {"s1": "A", "s2": "OOS"})
    assert read_back(text, sub.parse_key, key_fields, key) is text


def test_read_back_raises_the_readers_error_naming_the_value():
    key = sub.TrialKey(["A", "B"], {"s1": "C"})
    with pytest.raises(UnknownLanguage) as err:
        read_back("A B\ns1 C\n", sub.parse_key, key_fields, key)
    assert err.value.line_no is None and err.value.__cause__ is None
    assert str(err.value) == f"{key!r} would not read back: line 2: language 'C' not in header"


def test_read_back_refuses_text_the_reader_reads_otherwise():
    # the entry line starts with "#", so the reader skips it as a comment
    key = sub.TrialKey(["A", "B"], {"#s": "A"})
    with pytest.raises(MalformedLine) as err:
        read_back("A B\n#s A\n", sub.parse_key, key_fields, key)
    assert err.value.line_no is None
    assert str(err.value) == f"{key!r} would not read back unchanged"
