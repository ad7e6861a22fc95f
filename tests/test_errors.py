"""Unit tests for the exception hierarchy."""

import pickle

import pytest

from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "SourceError",
            "LexError",
            "ParseError",
            "PreprocessorError",
            "LoweringError",
            "AnalysisError",
            "AnalysisUnsupported",
            "VcsError",
            "CorpusError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError), name

    def test_frontend_errors_are_source_errors(self):
        for name in ("LexError", "ParseError", "PreprocessorError", "LoweringError"):
            assert issubclass(getattr(errors, name), errors.SourceError)

    def test_unsupported_is_analysis_error(self):
        assert issubclass(errors.AnalysisUnsupported, errors.AnalysisError)

    def test_source_error_message_format(self):
        err = errors.ParseError("unexpected token", "file.c", 12, 3)
        assert str(err) == "file.c:12:3: unexpected token"
        assert err.filename == "file.c"
        assert err.line == 12
        assert err.column == 3

    def test_source_error_defaults(self):
        err = errors.LexError("bad char")
        assert err.filename == "<unknown>"

    def test_catching_base_class(self):
        with pytest.raises(errors.ReproError):
            raise errors.VcsError("boom")


class TestPickling:
    """Process-pool workers raise frontend errors across a pickle boundary."""

    @pytest.mark.parametrize(
        "name", ["LexError", "ParseError", "PreprocessorError", "LoweringError"]
    )
    def test_frontend_errors_round_trip(self, name):
        error = getattr(errors, name)("expected a type", "a.c", 1, 8)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error) == "a.c:1:8: expected a type"
        assert (copy.filename, copy.line, copy.column) == ("a.c", 1, 8)
