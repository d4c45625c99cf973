"""CLI behavior: commands, exit codes, structured output round-trips."""

import hashlib
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pgroebner
from pgroebner import reports
from pgroebner.cli import main
from pgroebner.reports import (
    JOIN_CHUNK,
    _poly_lines,
    _nonzero_digits,
    _pivot_digits,
    lrr_doc,
    parse_gb_doc,
    parse_lrr_doc,
    parse_p_basis_doc,
    render_gb_doc,
    render_lrr_doc,
    render_lrr_human,
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
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors exit from parse_args
        code = exc.code
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

    def test_iteration_cap_fires_before_the_pairs_are_reduced(self, capsys, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("".join(f"[x^{k % 97}+{k}]\n" for k in range(1, 4001)))
        code, _, err = run(capsys, ["gb", "--ring", "256", "--max-steps", "100", str(path)])
        assert code == 3
        assert "exceeded 100 queued pairs" in err

    def test_cap_env_override(self, capsys, gen_file, monkeypatch):
        monkeypatch.setenv("PGROEBNER_MAX_STEPS", "1")
        code, _, _ = run(capsys, ["gb", "--ring", "9", gen_file])
        assert code == 3

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["check", "GB", "--trials", "0"], {}, "must be at least"),
            (["check", "GB", "--trials", "-3"], {}, "must be at least"),
            (["gb", "GEN", "--max-steps", "-5"], {}, "must be at least"),
            (["lrr", "--seq", "1,4,4,7,7", "--max-enum", "-1"], {}, "must be at least"),
            (["gb", "GEN"], {"PGROEBNER_MAX_STEPS": "-1"}, "must be at least"),
            (["lrr", "--seq", "1,4,4,7,7"], {"PGROEBNER_MAX_ENUM": "-1"}, "must be at least"),
            # a cap given to a command that does not apply it is a usage error
            (["check", "GB", "--max-steps", "-5", "--max-enum", "-1"], {}, "unrecognized"),
            (["check", "GB", "--max-steps", "5"], {}, "unrecognized"),
            (["gb", "GEN", "--max-enum", "-1"], {}, "unrecognized"),
            (["pbasis", "GEN", "--max-enum", "7"], {}, "unrecognized"),
        ],
        ids=[
            "trials-0", "trials-3", "max-steps", "max-enum", "env-steps", "env-enum",
            "check-caps", "check-max-steps", "gb-max-enum", "pbasis-max-enum",
        ],
    )
    def test_meaningless_counts_are_parse_errors(
        self, capsys, gen_file, gb_file, monkeypatch, argv, env, message
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        files = {"GB": gb_file, "GEN": gen_file}
        argv = [argv[0], "--ring", "9"] + [files.get(a, a) for a in argv[1:]]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert message in err


    @pytest.mark.parametrize("row", ["[x^\u0663]", "[\u0661]"], ids=["exponent", "coefficient"])
    def test_non_ascii_digits_are_parse_errors(self, capsys, tmp_path, row):
        # Arabic-Indic 3 and 1: \\d and int() would read them as 3 and 1
        path = tmp_path / "row.txt"
        path.write_text(row + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["gb", "--ring", "9", str(path)])
        assert code == 2 and not out and "bad term" in err

    @pytest.mark.parametrize(
        "spell",
        [lambda v: v.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                             "\u0665\u0666\u0667\u0668\u0669")),
         lambda v: "0_" + v],
        ids=["arabic-indic", "underscore"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["gb", "--ring", "=9", "GEN"],
            ["gb", "--p", "=3", "--r", "2", "GEN"],
            ["gb", "--p", "3", "--r", "=2", "GEN"],
            ["gb", "--ring", "9", "--max-steps", "=1000", "GEN"],
            ["lrr", "--ring", "9", "--seq", "1,4,4,7,7", "--max-enum", "=1000"],
            ["check", "--ring", "9", "GB", "--trials", "=10"],
            ["check", "--ring", "9", "GB", "--seed", "=7"],
        ],
        ids=["ring", "p", "r", "max-steps", "max-enum", "trials", "seed"],
    )
    def test_integer_options_take_ascii_decimal_digits_only(
        self, capsys, gen_file, gb_file, argv, spell
    ):
        # the '='-marked value runs as plain digits; int() would read it respelled too
        files = {"GB": gb_file, "GEN": gen_file}
        plain = [files.get(a, a.lstrip("=")) for a in argv]
        assert run(capsys, plain)[0] == 0
        k = next(i for i, a in enumerate(argv) if a.startswith("="))
        spelled = plain[:k] + [spell(plain[k])] + plain[k + 1 :]
        assert int(spelled[k]) == int(plain[k])
        code, out, err = run(capsys, spelled)
        assert code == 2 and not out and "invalid" in err

    @pytest.mark.parametrize(
        "ring, digest",
        [
            ("2", "c21c10cc2e76b5391022d1f821b13987b515c6fca8309ce3f21ec8ab331890b4"),
            ("256", "473bfaf87426bb15d9cc0640e531a88d44230d123d027f1ebdd9ef26403f4b02"),
            ("65521", "e6355cbe9d5b637b46316b7ebbe07c1d7b2e2cb3e5e3f1a3d169ef14cadab5c4"),
        ],
        ids=["Z_2", "Z_256", "Z_65521"],
    )
    def test_sparse_rows_of_degree_ten_to_the_fifth(self, capsys, tmp_path, ring, digest):
        """A few terms up to degree 10^5: completion takes 0.3-2 * 10^5 reduction
        steps, each over the blocks of degrees its reducer reaches.  The digests
        are of the output of the dict-based vectors these blocks replaced."""
        path = tmp_path / "sparse.txt"
        path.write_text("[x^100000+1, x]\n[x, 1]\n[x^99999, x^5+3]\n")
        code, out, _ = run(capsys, ["gb", "--ring", ring, "--structured", str(path)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_large_prime_structured(self, capsys):
        code, out, _ = run(
            capsys, ["lrr", "--ring", "65521", "--seq", "1,2,3,5,8,13,21", "--structured"]
        )
        assert code == 0
        assert "\nmonic-count: 1\nmonic: x^2+65520x+65520\n" in out
        assert len(out) == 382198
        # the pivot digits are every nonzero digit 1..p-1
        assert f"\npivot-digits: {','.join(map(str, range(1, 65521)))}\n" in out
        assert render_lrr_doc(parse_lrr_doc(out)) == out

    def test_large_prime_human(self):
        sol = pgroebner.shortest_lrr(pgroebner.SequenceInput(pgroebner.Zpr(65521, 1), (1, 2, 3)))
        out = render_lrr_human(sol, None)
        assert f"\n  q0: nonzero digit in {{{','.join(map(str, range(1, 65521)))}}}\n" in out
        digit_set = ",".join(map(str, range(65521)))
        assert f"\n  q1: polynomial with coefficients in {{{digit_set}}}, deg <= 0\n" in out

    def test_parsed_doc_equals_built_doc(self):
        for p, r, seq in ((3, 2, (1, 4, 4, 7, 7)), (65521, 1, (1, 2, 3, 5, 8, 13, 21))):
            S = pgroebner.SequenceInput(pgroebner.Zpr(p, r), seq)
            sol = pgroebner.shortest_lrr(S)
            doc = lrr_doc(sol, pgroebner.enumerate_shortest(sol))
            assert parse_lrr_doc(render_lrr_doc(doc)) == doc

    def test_chunked_join_equals_plain_join(self):
        ring = pgroebner.Zpr(3, 2)
        for n in (0, 1, JOIN_CHUNK - 1, JOIN_CHUNK, JOIN_CHUNK + 1, 3 * JOIN_CHUNK + 5):
            polys = [pgroebner.Poly(ring, (v, v // 9, v // 81)) for v in range(7, 7 + n)]
            for items in (polys, tuple(polys)):
                assert "\n".join(_poly_lines("monic: ", items)) == "\n".join(
                    f"monic: {pgroebner.format_poly(f)}" for f in items
                )

    def test_decimal_block_digits_equal_plain_join(self, monkeypatch):
        def is_prime(n):
            return all(n % d for d in range(2, int(n**0.5) + 1))

        # the primes next to each block edge k*10^w end inside a cut block
        edges = set()
        for w in range(1, 5):
            for k in range(1, 10):
                edges.add(next(n for n in range(k * 10**w - 1, 1, -1) if is_prime(n)))
                edges.add(next(n for n in range(k * 10**w + 1, 10**6) if is_prime(n)))
        assert {1999, 2003, 9973, 10007, 59999, 60013} <= edges
        for p in sorted({*range(2, 1201), *(e for e in edges if e <= 65521), 65521}):
            plain = ",".join(map(str, range(1, p)))
            assert _nonzero_digits(p) == plain, p
            assert _nonzero_digits(p, "pivot-digits: ") == "pivot-digits: " + plain, p
        # one kept text, for the largest p so far, whatever order p arrives in
        monkeypatch.setattr(reports, "_kept", (1, "pivot-digits: "))
        for p in (65521, 3, 10007, 2, 65519, 101, *range(2, 1201), 65521):
            assert _pivot_digits(p) == "pivot-digits: " + ",".join(map(str, range(1, p))), p
            assert reports._kept[0] == 65521
        # at the largest p the field is the kept text, not a copy of it
        assert _pivot_digits(65521) is _pivot_digits(65521) is reports._kept[1]

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
        code_eq, out_eq, _ = run(capsys, ["lrr", "--ring", "9", "--seq=-1,3"])
        for flag in ("--seq", "--se"):
            code, out, _ = run(capsys, ["lrr", "--ring", "9", flag, "-1,3"])
            assert code == code_eq == 0
            assert out == out_eq
            assert "sequence 8,3 over Z_9" in out

    def test_bad_sequence_is_parse_error(self, capsys):
        code, _, _ = run(capsys, ["lrr", "--ring", "9", "--seq", "1,4,x"])
        assert code == 2

    @pytest.mark.parametrize("seq", ["1_0,4,4,7,7", "10,\u0664,4,7,7", "1_0,\u0664,4,7,7"],
                             ids=["underscore", "arabic-indic", "both"])
    def test_sequence_takes_ascii_decimal_digits_only(self, capsys, seq):
        code, out, err = run(capsys, ["lrr", "--ring", "9", "--seq", seq])
        assert code == 2 and not out and "bad sequence" in err
        # signs and spaces around a number stay accepted
        assert run(capsys, ["lrr", "--ring", "9", "--seq", " 1, +4,4 ,7,-2"])[1] == run(
            capsys, ["lrr", "--ring", "9", "--seq", "1,4,4,7,7"])[1]

    def test_all_flag_includes_nonmonic(self, capsys):
        code, out, _ = run(capsys, ["lrr", "--ring", "5", "--seq", "1,4,3,3,2", "--all"])
        assert code == 0
        assert "4x^2+3x+1" in out  # 4 * (x^2+2x+4) mod 5

    def test_all_flag_names_a_list_with_nonmonic_entries(self, capsys):
        code, out, _ = run(capsys, ["lrr", "--ring", "9", "--seq", "1,4,4,7,7", "--all"])
        assert code == 0
        assert "\nunit-leading-coefficient shortest recurrences (18):\n  2x^2+1\n" in out
        assert "monic shortest recurrences" not in out

    @pytest.mark.parametrize("args, listed", [
        (["--ring", "9", "--seq", "1,4,4,7,7"], "(3):\n  x^2+3x+2\n  x^2+5\n  x^2+6x+8\n"),
        (["--ring", "2", "--seq", "0,1", "--all"], "(4):\n  x^2\n  x^2+x\n  x^2+1\n  x^2+x+1\n"),
    ], ids=["z9-monic", "z2-all"])
    def test_all_monic_lists_keep_the_monic_label(self, capsys, args, listed):
        code, out, _ = run(capsys, ["lrr", *args])
        assert code == 0
        assert out.endswith("\nmonic shortest recurrences " + listed)


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

    def test_se_abbreviates_seed(self, capsys, gb_file):
        code, out, _ = run(capsys, ["check", "--ring", "9", gb_file, "--se", "2"])
        assert code == 0
        assert "seed 2)" in out

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
        # run from the directory holding the imported package, so the child
        # finds it without PYTHONPATH or an install
        where = Path(pgroebner.__file__).parents[1]
        first = subprocess.run(cmd, capture_output=True, text=True, cwd=where)
        second = subprocess.run(cmd, capture_output=True, text=True, cwd=where)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert "shortest: x^2+3x+2" in first.stdout

    def test_package_entry_point(self):
        # `python -m pgroebner` is the same front end, exit codes included
        where = Path(pgroebner.__file__).parents[1]
        args = ["lrr", "--ring", "9", "--seq", "1,4,4,7,7", "--structured"]
        runs = [
            subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True, cwd=where)
            for module in ("pgroebner", "pgroebner.cli")
            for argv in (args, ["lrr", "--ring", "6", "--seq", "1"])
        ]
        assert [r.returncode for r in runs] == [0, 2, 0, 2]
        assert runs[0].stdout == runs[2].stdout and "shortest: x^2+3x+2" in runs[0].stdout
        assert "not a prime power" in runs[1].stderr
