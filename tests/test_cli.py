"""CLI behavior: commands, exit codes, structured output round-trips."""

import subprocess
import sys
import time

import pytest

from pgroebner.cli import main
from pgroebner.reports import (
    parse_gb_doc,
    parse_lrr_doc,
    parse_p_basis_doc,
    render_gb_doc,
    render_lrr_doc,
    render_p_basis_doc,
)
from conftest import GB_Z9A_TOP, GEN_Z9A


@pytest.fixture
def gen_file(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text(GEN_Z9A)
    return str(path)


@pytest.fixture
def gb_file(tmp_path):
    path = tmp_path / "gb.txt"
    path.write_text(GB_Z9A_TOP)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGb:
    def test_top_listing(self, capsys, gen_file):
        code, out, _ = run(capsys, ["gb", "--ring", "9", "--order", "top", gen_file])
        assert code == 0
        assert "4 element(s)" in out
        assert "order differences: (1,1,1,1)" in out
        assert "[3x+6, 3x]" in out

    def test_pot_listing(self, capsys, gen_file):
        code, out, _ = run(capsys, ["gb", "--ring", "9", "--order", "pot", gen_file])
        assert code == 0
        assert "2 element(s)" in out
        assert "order differences: (2,2)" in out

    def test_structured_round_trip(self, capsys, gen_file):
        code, out, _ = run(capsys, ["gb", "--ring", "9", "--structured", gen_file])
        assert code == 0
        assert render_gb_doc(parse_gb_doc(out)) == out

    def test_explicit_p_r(self, capsys, gen_file):
        code, out, _ = run(capsys, ["gb", "--p", "3", "--r", "2", gen_file])
        assert code == 0

    def test_empty_input_is_parse_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, _, err = run(capsys, ["gb", "--ring", "9", str(empty)])
        assert code == 2
        assert "error" in err

    def test_missing_file_is_parse_error(self, capsys):
        code, _, _ = run(capsys, ["gb", "--ring", "9", "/nonexistent/file.txt"])
        assert code == 2

    @pytest.mark.parametrize(
        "row",
        ["[" + "7" * 5000 + "x+1]", "[x^" + "9" * 5000 + "]", "[x^1000000000+1]"],
        ids=["long-coefficient", "long-exponent", "huge-exponent"],
    )
    def test_oversized_numbers_are_parse_errors(self, capsys, tmp_path, row):
        f = tmp_path / "big.txt"
        f.write_text(row + "\n")
        start = time.perf_counter()
        code, _, err = run(capsys, ["gb", "--ring", "9", str(f)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "error" in err

    def test_iteration_cap_exit_code(self, capsys, gen_file):
        code, _, err = run(capsys, ["gb", "--ring", "9", "--max-steps", "1", gen_file])
        assert code == 3

    def test_cap_env_override(self, capsys, gen_file, monkeypatch):
        monkeypatch.setenv("PGROEBNER_MAX_STEPS", "1")
        code, _, _ = run(capsys, ["gb", "--ring", "9", gen_file])
        assert code == 3


class TestRingFlag:
    def test_prime_power_factoring(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("[x^2+1]\n")
        for ring in ("9", "8", "5"):
            code, _, _ = run(capsys, ["gb", "--ring", ring, str(f)])
            assert code == 0

    def test_composite_rejected(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("[x^2+1]\n")
        code, _, err = run(capsys, ["gb", "--ring", "6", str(f)])
        assert code == 2
        assert "prime power" in err

    @pytest.mark.parametrize(
        "ring_args",
        [
            ["--ring", "100000000000031"],  # prime near 10^14
            ["--ring", str(2**61 - 1)],  # prime near 2^61
            ["--p", "3", "--r", "30000000"],
        ],
    )
    def test_oversized_rings_rejected_quickly(self, capsys, ring_args):
        start = time.perf_counter()
        code, _, err = run(capsys, ["lrr", *ring_args, "--seq", "1,2"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "error" in err

    def test_both_forms_rejected(self, capsys, gen_file):
        code, _, _ = run(capsys, ["gb", "--ring", "9", "--p", "3", "--r", "2", gen_file])
        assert code == 2

    def test_missing_ring_rejected(self, capsys, gen_file):
        code, _, _ = run(capsys, ["gb", gen_file])
        assert code == 2


class TestPBasisCommand:
    def test_pot_listing(self, capsys, gen_file):
        code, out, _ = run(capsys, ["pbasis", "--ring", "9", "--order", "pot", gen_file])
        assert code == 0
        assert "# betas=(2,2) N=4 order=POT" in out
        assert "p-dimension: 4" in out
        assert "p^1*g1" in out

    def test_top_listing(self, capsys, gen_file):
        code, out, _ = run(capsys, ["pbasis", "--ring", "9", "--order", "top", gen_file])
        assert code == 0
        assert "N=4" in out

    def test_structured_round_trip(self, capsys, gen_file):
        for order in ("top", "pot"):
            code, out, _ = run(
                capsys, ["pbasis", "--ring", "9", "--order", order, "--structured", gen_file]
            )
            assert code == 0
            assert render_p_basis_doc(parse_p_basis_doc(out)) == out

    def test_field_input_matches_gb(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("[x^2+1, x]\n[0, x^3]\n")
        code, out, _ = run(capsys, ["pbasis", "--ring", "5", str(f)])
        assert code == 0
        code2, out2, _ = run(capsys, ["gb", "--ring", "5", str(f)])
        gb_rows = [l.rsplit(" = ", 1)[1] for l in out2.splitlines() if " = [" in l]
        pb_rows = [l.rsplit(" = ", 1)[1] for l in out.splitlines() if " = [" in l]
        assert gb_rows == pb_rows


class TestLrrCommand:
    def test_z9a(self, capsys):
        code, out, _ = run(capsys, ["lrr", "--ring", "9", "--seq", "1,4,4,7,7"])
        assert code == 0
        assert "shortest recurrence: x^2+3x+2  (length 2)" in out
        for poly in ("x^2+3x+2", "x^2+6x+8", "x^2+5"):
            assert f"  {poly}" in out

    def test_z5(self, capsys):
        code, out, _ = run(capsys, ["lrr", "--ring", "5", "--seq", "1,4,3,3,2"])
        assert code == 0
        assert "shortest recurrence: x^2+2x+4" in out
        assert "monic shortest recurrences (1):" in out

    def test_z9b(self, capsys):
        code, out, _ = run(capsys, ["lrr", "--ring", "9", "--seq", "6,3,1,5,6"])
        assert code == 0
        assert "shortest recurrence: x^3+4x^2+7x+4" in out
        assert "x^3+4x^2+7x+1" in out

    def test_structured_round_trip(self, capsys):
        code, out, _ = run(
            capsys, ["lrr", "--ring", "9", "--seq", "1,4,4,7,7", "--structured"]
        )
        assert code == 0
        assert render_lrr_doc(parse_lrr_doc(out)) == out

    def test_enumeration_cap_still_prints_template(self, capsys):
        code, out, err = run(
            capsys, ["lrr", "--ring", "9", "--seq", "1,4,4,7,7", "--max-enum", "1"]
        )
        assert code == 4
        assert "all shortest recurrences:" in out
        assert "exceeds" in out or "exceed" in err

    def test_negative_values_with_separate_argument(self, capsys):
        code, out, _ = run(capsys, ["lrr", "--ring", "9", "--seq", "-1,3"])
        code_eq, out_eq, _ = run(capsys, ["lrr", "--ring", "9", "--seq=-1,3"])
        assert code == code_eq == 0
        assert out == out_eq
        assert "sequence 8,3 over Z_9" in out

    def test_bad_sequence_is_parse_error(self, capsys):
        code, _, _ = run(capsys, ["lrr", "--ring", "9", "--seq", "1,4,x"])
        assert code == 2

    def test_all_flag_includes_nonmonic(self, capsys):
        code, out, _ = run(capsys, ["lrr", "--ring", "5", "--seq", "1,4,3,3,2", "--all"])
        assert code == 0
        assert "4x^2+3x+1" in out  # 4 * (x^2+2x+4) mod 5


class TestCheckCommand:
    def test_known_basis_passes(self, capsys, gb_file):
        code, out, _ = run(capsys, ["check", "--ring", "9", gb_file, "--seed", "1"])
        assert code == 0
        assert "p-plm: pass" in out

    def test_field_basis_passes_plm(self, capsys, tmp_path):
        f = tmp_path / "gb5.txt"
        f.write_text("[2x+2, x^4+3x^3+x]\n[x^2+2x+4, 4x^2+2x]\n")
        code, out, _ = run(capsys, ["check", "--ring", "5", str(f), "--seed", "1"])
        assert code == 0
        assert "plm: pass" in out

    def test_corrupted_row_fails(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(GB_Z9A_TOP.replace("[3x+6, 3x]", "[3x+6, 4x]"))
        code, out, _ = run(capsys, ["check", "--ring", "9", str(f)])
        assert code == 5
        assert "FAIL" in out

    def test_non_minimal_input_fails(self, capsys, tmp_path):
        f = tmp_path / "nonmin.txt"
        f.write_text(GB_Z9A_TOP + "[x^3+3x^2+2x, x^3+4x^2]\n")  # x * third row
        code, out, _ = run(capsys, ["check", "--ring", "9", str(f)])
        assert code == 5
        assert "reducible" in out

    def test_repeated_row_fails_as_reducible(self, capsys, tmp_path):
        f = tmp_path / "repeated.txt"
        f.write_text(GB_Z9A_TOP + GB_Z9A_TOP.splitlines()[-1] + "\n")
        code, out, _ = run(capsys, ["check", "--ring", "9", str(f)])
        assert code == 5
        assert "reducible" in out

    def test_seeded_runs_are_reproducible(self, capsys, gb_file):
        _, out1, _ = run(capsys, ["check", "--ring", "9", gb_file, "--seed", "7"])
        _, out2, _ = run(capsys, ["check", "--ring", "9", gb_file, "--seed", "7"])
        assert out1 == out2


class TestDeterminism:
    def test_repeated_structured_outputs_identical(self, capsys, gen_file):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, ["gb", "--ring", "9", "--structured", gen_file])
            outs.add(out)
        assert len(outs) == 1

    def test_console_entry_point(self):
        cmd = [sys.executable, "-m", "pgroebner.cli", "lrr", "--ring", "9",
               "--seq", "1,4,4,7,7", "--structured"]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert "shortest: x^2+3x+2" in first.stdout
