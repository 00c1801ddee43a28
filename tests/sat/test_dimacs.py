"""Unit tests for DIMACS reading and writing."""

import pytest

from repro.errors import CnfError
from repro.sat.cnf import Cnf
from repro.sat.dimacs import dimacs_string, parse_dimacs, write_dimacs


def _sample_cnf() -> Cnf:
    cnf = Cnf()
    cnf.add_comment("sample")
    cnf.add_clause([1, -2])
    cnf.add_clause([2, 3])
    cnf.add_unit(-3)
    return cnf


class TestWrite:
    def test_string_output_contains_header_and_clauses(self):
        text = dimacs_string(_sample_cnf())
        lines = text.strip().splitlines()
        assert lines[0] == "c sample"
        assert lines[1] == "p cnf 3 3"
        assert lines[2] == "1 -2 0"
        assert lines[-1] == "-3 0"

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "formula.cnf"
        write_dimacs(_sample_cnf(), path)
        assert path.read_text().startswith("c sample")

    def test_write_to_stream(self, tmp_path):
        path = tmp_path / "formula.cnf"
        with open(path, "w") as stream:
            write_dimacs(_sample_cnf(), stream)
        assert "p cnf 3 3" in path.read_text()


class TestParse:
    def test_round_trip(self):
        original = _sample_cnf()
        parsed = parse_dimacs(dimacs_string(original))
        assert parsed.as_lists() == original.as_lists()
        assert parsed.num_variables == original.num_variables

    def test_parse_from_path(self, tmp_path):
        path = tmp_path / "f.cnf"
        write_dimacs(_sample_cnf(), path)
        parsed = parse_dimacs(path)
        assert parsed.num_clauses == 3

    def test_parse_from_path_string(self, tmp_path):
        path = tmp_path / "f.cnf"
        write_dimacs(_sample_cnf(), path)
        parsed = parse_dimacs(str(path))
        assert parsed.num_clauses == 3

    def test_clause_spanning_multiple_lines(self):
        parsed = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert parsed.as_lists() == [[1, 2, 3]]

    def test_missing_trailing_zero_is_tolerated(self):
        parsed = parse_dimacs("p cnf 2 1\n1 -2\n")
        assert parsed.as_lists() == [[1, -2]]

    def test_comments_preserved(self):
        parsed = parse_dimacs("c hello world\np cnf 1 1\n1 0\n")
        assert "hello world" in parsed.comments

    def test_clause_count_mismatch_adds_warning(self):
        parsed = parse_dimacs("p cnf 1 5\n1 0\n")
        assert any("warning" in comment for comment in parsed.comments)

    def test_malformed_problem_line(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf x y\n")

    def test_non_integer_token(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf 2 1\n1 foo 0\n")

    def test_header_reserves_variables(self):
        parsed = parse_dimacs("p cnf 10 1\n1 0\n")
        assert parsed.num_variables == 10

    @pytest.mark.parametrize(
        "header",
        ["p cnf -5 1", "p cnf 5 -1", "p cnf 99999999999 1", "p cnf 2147483648 1"],
        ids=["negative-variables", "negative-clauses", "huge", "past-int32"],
    )
    def test_header_counts_out_of_range_are_refused(self, header):
        with pytest.raises(CnfError):
            parse_dimacs(f"{header}\n1 0\n")
