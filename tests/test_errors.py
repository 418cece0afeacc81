"""Tests for the structured error taxonomy and CLI exit codes."""

import pytest

from repro.boolfunc.pla import PlaError
from repro.errors import (
    EXIT_CORRUPT,
    EXIT_INTERNAL,
    EXIT_PARSE,
    EXIT_USAGE,
    CorruptRecordError,
    ParseError,
    QuarantinedJobError,
    ReproError,
    UsageError,
    exit_code_for,
)


class TestTaxonomy:
    def test_all_are_repro_errors(self):
        for cls in (UsageError, ParseError, CorruptRecordError, QuarantinedJobError):
            assert issubclass(cls, ReproError)

    def test_value_error_compat(self):
        # Pre-taxonomy call sites catch ValueError; keep them working.
        assert issubclass(ParseError, ValueError)
        assert issubclass(CorruptRecordError, ValueError)
        assert issubclass(PlaError, ParseError)

    def test_exit_codes_distinct(self):
        codes = {
            cls.exit_code
            for cls in (UsageError, ParseError, CorruptRecordError,
                        QuarantinedJobError, ReproError)
        }
        assert len(codes) == 5

    def test_exit_code_for(self):
        assert exit_code_for(ParseError("x")) == EXIT_PARSE
        assert exit_code_for(CorruptRecordError("x")) == EXIT_CORRUPT
        assert exit_code_for(RuntimeError("x")) == EXIT_INTERNAL
        assert exit_code_for(SystemExit(2)) == EXIT_USAGE


class TestParseErrorContext:
    def test_file_and_line_render(self):
        err = ParseError("bad cube", file="c.pla", line=12)
        assert str(err) == "c.pla:12: bad cube"

    def test_file_only(self):
        assert str(ParseError("missing headers", file="c.pla")) == (
            "c.pla: missing headers"
        )

    def test_line_only(self):
        assert str(ParseError("bad cube", line=3)) == "line 3: bad cube"

    def test_bare_message(self):
        assert str(ParseError("bad cube")) == "bad cube"


class TestCliMapping:
    def test_parse_error_is_clean_exit_3(self, tmp_path, capsys):
        from repro.cli import main

        pla = tmp_path / "broken.pla"
        pla.write_text(".i 2\n.o 1\n0111 1\n.e\n")  # wrong input width
        code = main(["minimize", str(pla)])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "spp-minimize: error:" in err
        assert "broken.pla:3:" in err     # clickable file:line context
        assert "Traceback" not in err

    def test_unreadable_file_is_clean_exit_3(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["minimize", str(tmp_path / "missing.pla")])
        assert code == EXIT_PARSE
        assert "cannot read PLA file" in capsys.readouterr().err

    def test_invalid_job_parameter_is_clean_exit_2(self, capsys):
        from repro.cli import main

        code = main(["batch", "adr2", "--method", "heuristic", "-k", "9"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "k must be in [0, 3]" in err
        assert "Traceback" not in err
