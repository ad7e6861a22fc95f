"""Unit tests for the preprocessor model (conditional regions + defines)."""

import pytest

from repro.errors import PreprocessorError
from repro.frontend.preprocessor import preprocess


class TestConditionals:
    def test_disabled_if_blanks_body(self):
        src = "a\n#if USE_ICMP\nhidden\n#endif\nb"
        result = preprocess(src)
        lines = result.text.split("\n")
        assert lines[0] == "a"
        assert lines[2] == ""
        assert lines[4] == "b"

    def test_enabled_if_keeps_body(self):
        src = "#if USE_ICMP\nkept\n#endif"
        result = preprocess(src, config={"USE_ICMP"})
        assert "kept" in result.text

    def test_line_numbers_preserved(self):
        src = "#if X\nbody\n#endif\ntail"
        result = preprocess(src)
        assert result.text.split("\n")[3] == "tail"
        assert len(result.text.split("\n")) == len(src.split("\n"))

    def test_ifdef(self):
        result = preprocess("#ifdef FOO\nyes\n#endif", config={"FOO"})
        assert "yes" in result.text

    def test_ifndef(self):
        result = preprocess("#ifndef FOO\nyes\n#endif")
        assert "yes" in result.text
        result2 = preprocess("#ifndef FOO\nyes\n#endif", config={"FOO"})
        assert "yes" not in result2.text

    def test_else_branch(self):
        src = "#if FOO\na\n#else\nb\n#endif"
        off = preprocess(src)
        assert "a" not in off.text and "b" in off.text
        on = preprocess(src, config={"FOO"})
        assert "a" in on.text and "b" not in on.text

    def test_elif(self):
        src = "#if A\na\n#elif B\nb\n#else\nc\n#endif"
        assert "b" in preprocess(src, config={"B"}).text
        assert "c" in preprocess(src).text
        only_a = preprocess(src, config={"A", "B"}).text
        assert "a" in only_a and "b" not in only_a

    def test_nested_conditionals(self):
        src = "#if A\nouter\n#if B\ninner\n#endif\n#endif"
        both = preprocess(src, config={"A", "B"})
        assert "outer" in both.text and "inner" in both.text
        outer_only = preprocess(src, config={"A"})
        assert "outer" in outer_only.text and "inner" not in outer_only.text
        neither = preprocess(src)
        assert "outer" not in neither.text and "inner" not in neither.text

    def test_defined_operator(self):
        src = "#if defined(FOO)\nx\n#endif"
        assert "x" in preprocess(src, config={"FOO"}).text
        assert "x" not in preprocess(src).text

    def test_negation(self):
        src = "#if !FOO\nx\n#endif"
        assert "x" in preprocess(src).text
        assert "x" not in preprocess(src, config={"FOO"}).text

    def test_literal_conditions(self):
        assert "x" in preprocess("#if 1\nx\n#endif").text
        assert "x" not in preprocess("#if 0\nx\n#endif").text


class TestRegions:
    def test_region_records_guard_and_lines(self):
        src = "a\n#if USE_ICMP\nuse1\nuse2\n#endif\nb"
        result = preprocess(src)
        assert len(result.regions) == 1
        region = result.regions[0]
        assert region.guard == "USE_ICMP"
        assert not region.enabled
        assert region.start == 3 and region.end == 4

    def test_enabled_region_recorded_too(self):
        result = preprocess("#if X\nbody\n#endif", config={"X"})
        assert result.regions[0].enabled

    def test_nested_regions_recorded_outer_first(self):
        src = "#if A\n1\n#if B\n3\n#endif\n5\n#endif"
        result = preprocess(src)
        assert [(r.guard, r.start, r.end) for r in result.regions] == [("A", 2, 6), ("B", 4, 4)]

    def test_each_region_records_whether_the_build_enables_it(self):
        src = "#if A\nx\n#endif\n#if B\ny\n#endif"
        result = preprocess(src, config={"A"})
        assert [(r.guard, r.enabled) for r in result.regions] == [("A", True), ("B", False)]


class TestDefines:
    def test_define_feeds_conditionals(self):
        src = "#define FEATURE 1\n#if FEATURE\nx\n#endif"
        assert "x" in preprocess(src).text

    def test_define_zero_is_false(self):
        src = "#define FEATURE 0\n#if FEATURE\nx\n#endif"
        assert "x" not in preprocess(src).text

    def test_undef(self):
        src = "#define F 1\n#undef F\n#if F\nx\n#endif"
        assert "x" not in preprocess(src).text

    def test_define_inside_disabled_region_ignored(self):
        src = "#if NO\n#define F 1\n#endif\n#if F\nx\n#endif"
        assert "x" not in preprocess(src).text

    def test_include_and_pragma_blanked(self):
        result = preprocess('#include "x.h"\n#pragma once\ncode')
        lines = result.text.split("\n")
        assert lines[0] == "" and lines[1] == "" and lines[2] == "code"


class TestErrors:
    def test_unbalanced_endif(self):
        with pytest.raises(PreprocessorError):
            preprocess("#endif")

    def test_unterminated_if(self):
        with pytest.raises(PreprocessorError):
            preprocess("#if X\nbody")

    def test_else_without_if(self):
        with pytest.raises(PreprocessorError):
            preprocess("#else")

    def test_raw_text_preserved(self):
        src = "#if X\nsecret\n#endif"
        result = preprocess(src)
        assert "secret" in result.raw
