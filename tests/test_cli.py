"""Command-line front end: verbs, exit codes, bit-exact output, round-trips."""

import functools
import hashlib
import json
import math
import sys

import pytest

import dreglex.cli
import dreglex.dlex
import dreglex.ideals
from dreglex.betti import ek_betti
from dreglex.areas import parse_area
from dreglex.cli import main
from dreglex.errors import DomainError, DregLexError, FormatError
from dreglex.ideals import MonomialIdeal, parse_ideal
from dreglex.monomials import MAX_VARIABLES, GroundRing, parse_monomial
from dreglex.macaulay import parse_hilbert
from dreglex.squarefree import SimplicialComplex, parse_complex

RUNNING = "n=4\nx1*x2\nx3*x4\n"
SECTION4 = "n=6\nx1*x3*x5\nx1*x3*x6\nx1*x4*x6\nx2*x4*x6\n"
SECTION5 = "n=5\nx1^2\nx1*x2\nx1*x3\nx1*x4\nx2^2\nx2*x3^3\nx3^4\n"


@pytest.fixture
def running(tmp_path):
    path = tmp_path / "running.ideal"
    path.write_text(RUNNING)
    return str(path)


@pytest.fixture
def section5(tmp_path):
    path = tmp_path / "section5.ideal"
    path.write_text(SECTION5)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBetti:
    def test_ek_table(self, capsys, running):
        # feed the emitted ideal back through betti
        code, out, _ = run(capsys, "dlex", "-d", "5", running)
        gens = ",".join(str(g) for g in parse_ideal(out).gens)
        code2, out2, _ = run(capsys, "betti", "--method", "ek", "--gens", gens, "-n", "4")
        assert code == code2 == 0
        assert out2.endswith("total: 6 9 5 1\n")

    def test_method_identity(self, capsys, running):
        _, ek, _ = run(capsys, "dlex", "-d", "4", running)
        gens = ",".join(str(g) for g in parse_ideal(ek).gens)
        _, t1, _ = run(capsys, "betti", "--method", "ek", "--gens", gens, "-n", "4")
        _, t2, _ = run(capsys, "betti", "--method", "koszul", "--gens", gens, "-n", "4")
        _, t3, _ = run(capsys, "betti", "--method", "degreewise", "--gens", gens, "-n", "4")
        _, t4, _ = run(capsys, "betti", "--method", "auto", "--gens", gens, "-n", "4")
        assert t1 == t2 == t3 == t4

    def test_non_stable_ek_fails_with_exit_1(self, capsys, running):
        code, _, err = run(capsys, "betti", "--method", "ek", running)
        assert code == 1
        assert "error" in err

    def test_auto_picks_squarefree_formula(self, capsys):
        gens = "x1*x2*x3,x1*x2*x4,x1*x3*x4,x2*x3*x4"
        _, auto, _ = run(capsys, "betti", "--method", "auto", "--gens", gens, "-n", "4")
        _, ahh, _ = run(capsys, "betti", "--method", "ahh", "--gens", gens, "-n", "4")
        _, oracle, _ = run(capsys, "betti", "--method", "koszul", "--gens", gens, "-n", "4")
        assert auto == ahh == oracle

    @pytest.mark.parametrize("method", ["degreewise", "sq-degreewise"])
    def test_degreewise_rejects_unit_ideal(self, capsys, method):
        # like ek, ahh, koszul and auto: the zero ideal's empty diagram is not the answer
        code, out, err = run(capsys, "betti", "--method", method, "--gens", "1", "-n", "3")
        assert (code, out) == (1, "")
        assert err == "error: the unit ideal is outside the degreewise formulas\n"

    def test_triples_and_json(self, capsys, running):
        code, out, _ = run(capsys, "betti", "--method", "koszul", "--triples", running)
        assert code == 0
        assert out == "(0, 2, 2)\n(1, 4, 1)\n"
        code, out, _ = run(capsys, "betti", "--method", "koszul", "--json", running)
        payload = json.loads(out)
        assert payload["entries"] == [[0, 2, 2], [1, 4, 1]]
        assert payload["regularity"] == 3


class TestHilb:
    def test_single_degree(self, capsys, running):
        code, out, _ = run(capsys, "hilb", "-t", "5", running)
        assert code == 0 and out == "36\n"

    def test_through_emits_parsable_spec(self, capsys, running):
        code, out, _ = run(capsys, "hilb", "--through", "6", running)
        assert code == 0
        spec = parse_hilbert(out)
        assert spec.values == (0, 0, 2, 8, 19, 36, 60)
        assert spec.role == "ideal"

    def test_quotient_role(self, capsys, running):
        _, out, _ = run(capsys, "hilb", "--through", "3", "--quotient", running)
        spec = parse_hilbert(out)
        assert spec.role == "quotient"
        assert spec.values == (1, 4, 8, 12)

    def test_missing_degree_is_usage_error(self, capsys, running):
        with pytest.raises(SystemExit) as exc:
            main(["hilb", running])
        assert exc.value.code == 2
        assert "one of the arguments -t/--degree --through is required" in capsys.readouterr().err

    def test_degree_and_through_together_is_usage_error(self, capsys, running):
        # -t used to win silently and print H(2) alone
        with pytest.raises(SystemExit) as exc:
            main(["hilb", "-t", "2", "--through", "3", running])
        assert exc.value.code == 2
        assert "argument --through: not allowed with argument -t/--degree" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--through", "-3"], ["--through", "-3", "--quotient"], ["-t", "-3"]])
    def test_negative_degree_is_domain_error(self, capsys, running, argv):
        assert run(capsys, "hilb", *argv, running) == (1, "", "error: negative degree -3\n")


class TestLexVerbs:
    def test_dlex_matches_printed_list(self, capsys, running):
        code, out, _ = run(capsys, "dlex", "-d", "4", running)
        assert code == 0
        assert out == "n=4\nx1^2\nx1*x2\nx1*x3^2\nx2^4\n"

    def test_lex_output_reparses(self, capsys, running):
        code, out, _ = run(capsys, "lex", running)
        assert code == 0
        L = parse_ideal(out)
        assert L.max_gen_degree == 6
        assert parse_ideal(out) == L

    def test_dlex_on_lexification_of_running_example(self, capsys, running, tmp_path):
        # Lex(I) has regularity 6, but its Hilbert function is the running
        # example's, which has regularity 3, so Lex^(3) exists
        _, lex, _ = run(capsys, "lex", running)
        path = tmp_path / "lex.ideal"
        path.write_text(lex)
        assert run(capsys, "dlex", "-d", "3", str(path)) == (0, "n=4\nx1^2\nx1*x2\nx2^3\n", "")

    def test_reg_too_small_is_domain_error(self, capsys, running):
        code, _, err = run(capsys, "dlex", "-d", "2", running)
        assert code == 1

    @pytest.mark.parametrize("d", ["0", "-3"])
    def test_nonpositive_d_rejected_before_regularity(self, capsys, monkeypatch, running, d):
        monkeypatch.setattr(dreglex.dlex, "betti_auto", lambda *a: pytest.fail("reg(I) computed"))
        code, out, err = run(capsys, "dlex", "-d", d, running)
        assert (code, out, err) == (1, "", "error: d must be positive\n")

    def test_sqdlex(self, capsys, tmp_path):
        path = tmp_path / "s4.ideal"
        path.write_text(SECTION4)
        code, out, _ = run(capsys, "sqdlex", "-d", "3", str(path))
        assert code == 0
        assert out == "n=6\nx1*x2*x3\nx1*x2*x4\nx1*x3*x4\nx2*x3*x4\n"

    def test_sqlex(self, capsys, tmp_path):
        path = tmp_path / "s4.ideal"
        path.write_text(SECTION4)
        code, out, _ = run(capsys, "sqlex", str(path))
        assert code == 0
        assert parse_ideal(out).max_gen_degree == 5

    def test_sqlex_rejects_unit_ideal(self, capsys):
        code, out, err = run(capsys, "sqlex", "--gens", "1", "-n", "3")
        assert (code, out) == (1, "")
        assert err == "error: the unit ideal has no squarefree lexsegment companion here\n"


class TestPhiVerbs:
    def test_phi_roundtrip(self, capsys):
        _, out, _ = run(capsys, "phi", "--gens", "x1^2,x1*x2,x2^2", "-n", "2")
        assert out == "n=3\nx1*x2\nx1*x3\nx2*x3\n"
        _, back, _ = run(capsys, "phi-inv", "--gens", "x1*x2,x1*x3,x2*x3", "-n", "3")
        assert back == "n=2\nx1^2\nx1*x2\nx2^2\n"

    def test_phi_tilde(self, capsys):
        _, out, _ = run(capsys, "phi-tilde", "--gens", "x1^2,x1*x2", "-n", "4")
        assert out == "n=4\nx1*x2\nx1*x3\n"

    def test_phi_tilde_rejects_unit_ideal(self, capsys):
        code, out, err = run(capsys, "phi-tilde", "--gens", "1", "-n", "3")
        assert (code, out) == (1, "")
        assert err == "error: the unit ideal is outside the spreading phi_tilde\n"


class TestLseq:
    def test_counts(self, capsys):
        gens = "x1^3,x1^2*x2,x1*x2^2,x2^3,x1^2*x3,x1*x2*x3,x2^2*x3,x1^2*x4"
        code, out, _ = run(capsys, "lseq", "--gens", gens, "-n", "4")
        assert code == 0 and out == "1 3 3 1\n"

    def test_star(self, capsys):
        gens = "x1*x2*x3,x1*x2*x4,x1*x3*x4,x2*x3*x4"
        code, out, _ = run(capsys, "lseq", "--star", "--gens", gens, "-n", "6")
        assert code == 0 and out == "1 3 0 0\n"

    @pytest.mark.parametrize("gens, result", [
        ("x1^2,x1*x2,x2^2,x1*x3", (0, "1 2 1\n", "")),
        ("x1,x2^2", (1, "", "error: generators must all have the same degree\n")),
        ("x1^2,x2^2", (1, "", "error: l-sequences are only meaningful for strongly stable sets\n")),
    ])
    def test_output_and_errors(self, capsys, gens, result):
        assert run(capsys, "lseq", "--gens", gens, "-n", "3") == result


class TestCharacterize:
    def test_accepts(self, capsys, tmp_path, running):
        _, spec_text, _ = run(capsys, "hilb", "--through", "6", running)
        path = tmp_path / "h.spec"
        path.write_text(spec_text)
        code, out, _ = run(capsys, "characterize", "-d", "3", str(path))
        assert code == 0
        assert out == "admissible\nwitness: 1 3 2 2\n"

    def test_exact_rejects_low_regularity(self, capsys, tmp_path):
        # a lexsegment ideal of regularity 2, probed at d = 5
        ideal_path = tmp_path / "low.ideal"
        ideal_path.write_text("n=4\nx1^2\nx1*x2\n")
        _, spec_text, _ = run(capsys, "hilb", "--through", "8", str(ideal_path))
        path = tmp_path / "h.spec"
        path.write_text(spec_text)
        code, out, _ = run(capsys, "characterize", "-d", "5", "--exact", str(path))
        assert code == 0
        assert out.startswith("inadmissible: (iii)")
        code, out, _ = run(capsys, "characterize", "-d", "5", str(path))
        assert out.startswith("admissible")

    @pytest.mark.parametrize("header", ["n=2 n=3 role=ideal", "n=3 role=ideal role=quotient"])
    def test_repeated_header_field_exit_2(self, capsys, tmp_path, header):
        # neither value of a repeated field may silently win
        path = tmp_path / "h.spec"
        path.write_text(f"{header}\n0\n1\n3\n")
        code, out, err = run(capsys, "characterize", "-d", "1", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"format error: bad Hilbert header {header!r}")

    @pytest.mark.parametrize("d", ["0", "-2"])
    def test_nonpositive_d_rejected(self, capsys, tmp_path, running, d):
        _, spec_text, _ = run(capsys, "hilb", "--through", "6", running)
        path = tmp_path / "h.spec"
        path.write_text(spec_text)
        code, out, err = run(capsys, "characterize", "-d", d, str(path))
        assert (code, out, err) == (1, "", "error: d must be positive\n")

    # Hilbert values near 10^12: a Macaulay representation that raises its
    # top one step at a time takes 10^12 steps on either file
    @pytest.mark.parametrize("spec, d, verdict", [
        ("n=2 role=ideal\n0\n1000000000000\n2\n3\n4\n", "3", "inadmissible: (ii)"),
        ("n=3 role=ideal\n0\n1000000000001\n2000000000003\n3000000000006\n", "1", "inadmissible: (i)(a)"),
    ], ids=["n2-d3", "n3-d1"])
    def test_large_values(self, capsys, tmp_path, comb_budget, spec, d, verdict):
        path = tmp_path / "big.spec"
        path.write_text(spec)
        code, out, _ = run(capsys, "characterize", "-d", d, str(path))
        assert code == 0 and out.splitlines()[0] == verdict


class TestRanges:
    def test_reg_range(self, capsys, running):
        code, out, _ = run(capsys, "reg-range", running)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "range: 3 4 5 6"
        assert lines[1] == "reg 3: x1^2, x1*x2, x2^3"

    # the x1^2, x1*x2, x2^3 seeds: prefix enumeration took minutes on them
    SEED = ("--gens", "x1^2,x1*x2,x2^3")

    def test_lex_seed_six_variables(self, capsys):
        code, out, _ = run(capsys, "lex", *self.SEED, "-n", "6")
        assert code == 0
        assert len(parse_ideal(out).gens) == 254

    def test_reg_range_seed_five_variables_output(self, capsys):
        code, out, _ = run(capsys, "reg-range", *self.SEED, "-n", "5")
        assert code == 0
        # the output of the prefix-enumeration construction
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1204645e60ed7e0c14cb476e2541db0acaa0f1cfec67df069caf90afd51d9021"
        )

    def test_reg_range_seed_six_variables(self, capsys):
        code, out, _ = run(capsys, "reg-range", *self.SEED, "-n", "6", "--json")
        assert code == 0
        ring = GroundRing(6)
        I = MonomialIdeal(ring, (parse_monomial(g, ring) for g in self.SEED[1].split(",")))
        witnesses = json.loads(out)["witnesses"]
        assert len(witnesses) > 1
        for r, gens in witnesses.items():
            r = int(r)
            J = MonomialIdeal(ring, (parse_monomial(g, ring) for g in gens))
            assert ek_betti(J).regularity() == r
            assert all(J.hilbert(t) == I.hilbert(t) for t in range(r + 7))

    @pytest.mark.parametrize("verb", ["lex", "reg-range"])
    def test_max_degree_flag_is_gone(self, capsys, running, verb):
        # Lex(I) ends where its Hilbert function says; there is no cap to set
        with pytest.raises(SystemExit) as exc:
            main([verb, running, "--max-degree", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-degree 4" in capsys.readouterr().err

    def test_sq_reg_range(self, capsys, tmp_path):
        path = tmp_path / "s4.ideal"
        path.write_text(SECTION4)
        code, out, _ = run(capsys, "sq-reg-range", str(path))
        assert code == 0
        assert out.splitlines()[0] == "range: 3 4 5"

    def test_sq_reg_range_starts_below_the_input_regularity(self, capsys, tmp_path):
        # the 12-cycle has regularity 5; its squarefree counts admit 4
        path = tmp_path / "cycle12.ideal"
        path.write_text("n=12\n" + "".join(f"x{i}*x{i % 12 + 1}\n" for i in range(1, 13)))
        code, out, _ = run(capsys, "sq-reg-range", str(path))
        assert code == 0
        assert out.splitlines()[0] == "range: 4 5 6"


class TestArea:
    def test_conv(self, capsys):
        code, out, _ = run(capsys, "area", "conv", "(2,4);(4,2)")
        assert code == 0 and out == "(2,4);(3,3);(4,2)\n"

    def test_rep_normalizes(self, capsys):
        code, out, _ = run(capsys, "area", "rep", "(1,3);(0,2);(2,4)")
        assert code == 0 and out == "(2,4)\n"

    def test_check(self, capsys):
        code, out, _ = run(capsys, "area", "check", "(2,4);(4,2)")
        assert code == 0
        assert out == "semi-convex: no\ntop: (2,4);(4,2)\n"

    def test_bad_syntax_exit_2(self, capsys):
        code, _, err = run(capsys, "area", "conv", "(2,4),(4,2)")
        assert code == 2


class TestLexArea:
    def test_section5(self, capsys, section5):
        code, out, _ = run(capsys, "lexarea", "--area", "(2,4);(3,3);(4,2)", section5)
        assert code == 0
        expected = "n=5\nx1^2\nx1*x2\nx1*x3\nx1*x4\nx1*x5\nx2^3\nx2^2*x3\nx2^2*x4\nx2*x3^3\nx3^4\n"
        assert out == expected

    def test_non_semi_convex_exit_1(self, capsys, section5):
        code, _, err = run(capsys, "lexarea", "--area", "(2,4);(4,2)", section5)
        assert code == 1

    def test_tall_area_is_lex(self, capsys, section5):
        """Areas have no height bound: over the rectangle of height 10^9 the
        area bounds nothing that Lex(I), ending in degree 17, reaches."""
        code, out, _ = run(capsys, "lexarea", "--area", "(4,1000000000)", section5)
        code2, lex, _ = run(capsys, "lex", section5)
        assert code == code2 == 0 and out == lex


class TestRoundTrips:
    def test_emitted_ideals_reparse_identically(self, capsys, tmp_path):
        import random

        from dreglex.ideals import format_ideal
        from tests.conftest import random_monomial_ideal

        rng = random.Random(63)
        for _ in range(25):
            I = random_monomial_ideal(rng, rng.randint(2, 4), 4, count=rng.randint(0, 4))
            text = format_ideal(I)
            assert parse_ideal(text) == I
            path = tmp_path / "i.ideal"
            path.write_text(text)
            if I.is_zero or I.is_unit:
                continue
            # parse -> transform -> emit -> reparse stays canonical
            code, out, _ = run(capsys, "lex", str(path))
            assert code == 0
            assert format_ideal(parse_ideal(out)) == out


class TestComplexVerbs:
    @pytest.fixture
    def triangle(self, tmp_path):
        path = tmp_path / "tri.cx"
        path.write_text("vertices=3\n1,2\n1,3\n2,3\n")
        return str(path)

    def test_fvec_hvec(self, capsys, triangle):
        _, f, _ = run(capsys, "complex", "fvec", triangle)
        _, h, _ = run(capsys, "complex", "hvec", triangle)
        assert f == "3 3\n" and h == "1 1 1\n"

    def test_sr(self, capsys, triangle):
        _, out, _ = run(capsys, "complex", "sr", triangle)
        assert out == "n=3\nx1*x2*x3\n"

    def test_dual_roundtrip(self, capsys, triangle):
        # the only minimal non-face is the full set, so the dual is the
        # irrelevant complex
        _, out, _ = run(capsys, "complex", "dual", triangle)
        assert parse_complex(out) == parse_complex("vertices=3\n{}\n")

    def test_cm(self, capsys, triangle):
        code, out, _ = run(capsys, "complex", "cm", triangle)
        assert code == 0 and out == "true\n"

    def test_past_the_old_subset_cap(self, capsys, tmp_path):
        # 20 and 22 vertices: a scan of the 2^n vertex sets takes seconds on
        # the first and stops above 2^20 subsets on the second
        boundary = tmp_path / "boundary20.cx"
        boundary.write_text("vertices=20\n" + "".join(
            ",".join(str(v) for v in range(1, 21) if v != u) + "\n" for u in range(1, 21)
        ))
        code, out, _ = run(capsys, "complex", "fvec", str(boundary))
        assert code == 0 and out.split() == [str(math.comb(20, i)) for i in range(1, 20)]
        two = tmp_path / "two11.cx"
        two.write_text("vertices=22\n" + ",".join(map(str, range(1, 12))) + "\n"
                       + ",".join(map(str, range(12, 23))) + "\n")
        code, out, _ = run(capsys, "complex", "sr", str(two))
        assert code == 0 and len(parse_ideal(out).gens) == 121
        code, out, _ = run(capsys, "complex", "dual", str(two))
        assert code == 0 and len(parse_complex(out).facets) == 121
        code, out, _ = run(capsys, "complex", "cm", str(two))
        assert (code, out) == (0, "false\n")

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "complex", "cm", "/nonexistent.cx")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["fvec", "--json", "FILE"], ["fvec", "FILE", "--json"], ["--json", "fvec", "FILE"],
    ])
    def test_file_before_or_after_options(self, capsys, triangle, argv):
        code, out, _ = run(capsys, "complex", *(triangle if a == "FILE" else a for a in argv))
        assert code == 0 and json.loads(out) == {"f": [3, 3]}

    def test_missing_input_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["complex", "fvec"])
        assert exc.value.code == 2
        assert "required: input" in capsys.readouterr().err


# spellings that int() reads as integers but the file formats do not: an
# underscore, a sign, Arabic-Indic and fullwidth digits; a space counts too
# where the line's own stripping leaves it inside
NOT_DECIMAL = ["1_0", "+3", "\u0663", "\uff13"]


class TestStrictIntegers:
    @pytest.mark.parametrize("n", NOT_DECIMAL + [" 3"])
    def test_ideal_header(self, capsys, tmp_path, n):
        path = tmp_path / "bad.ideal"
        path.write_text(f"n={n}\nx1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="bad ideal header"):
            parse_ideal(path.read_text(encoding="utf-8"))
        code, out, err = run(capsys, "hilb", "-t", "2", str(path))
        assert (code, out) == (2, "") and err.startswith("format error: bad ideal header")

    @pytest.mark.parametrize("value", NOT_DECIMAL)
    def test_hilbert_values_and_header(self, capsys, tmp_path, value):
        # 1_0 read as 10 made this specification inadmissible (exit 1)
        for text in (f"n=2 role=ideal\n0\n{value}\n", f"n={value} role=ideal\n0\n1\n"):
            path = tmp_path / "bad.hilb"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(FormatError, match="bad (integer|Hilbert header)"):
                parse_hilbert(text)
            code, out, err = run(capsys, "characterize", "-d", "2", str(path))
            assert (code, out) == (2, "") and err.startswith("format error: bad"), text

    @pytest.mark.parametrize("value", NOT_DECIMAL + [" 3"])
    def test_complex_header_and_facets(self, capsys, tmp_path, value):
        for text, match in ((f"vertices={value}\n1,2\n", "bad complex header"),
                            (f"vertices=3\n1,{value}\n", "bad facet line")):
            path = tmp_path / "bad.cx"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(FormatError, match=match):
                parse_complex(text)
            code, out, err = run(capsys, "complex", "fvec", str(path))
            assert (code, out) == (2, "") and err.startswith(f"format error: {match}"), text

    @pytest.mark.parametrize("value", NOT_DECIMAL)
    def test_generators_and_area(self, capsys, tmp_path, value):
        ring = GroundRing(4)
        for text in (f"x{value}", f"x1^{value}"):
            with pytest.raises(FormatError, match="bad monomial factor"):
                parse_monomial(text, ring)
            path = tmp_path / "bad.ideal"
            path.write_text(f"n=4\n{text}\n", encoding="utf-8")
            for source in (["--gens", text, "-n", "4"], [str(path)]):
                code, out, err = run(capsys, "hilb", "-t", "2", *source)
                assert (code, out) == (2, "") and err.startswith("format error: bad monomial factor"), text
        with pytest.raises(FormatError, match="bad area corner"):
            parse_area(f"({value},2)")
        code, out, err = run(capsys, "lexarea", "--gens", "x1", "-n", "2", "--area", f"({value},2)")
        assert (code, out) == (2, "") and err.startswith("format error: bad area corner")

    @pytest.mark.parametrize("value", NOT_DECIMAL + [" 4"])
    @pytest.mark.parametrize("argv", [
        ["hilb", "-t", "2", "--gens", "x1", "-n"], ["dlex", "--gens", "x1", "-n", "2", "-d"],
        ["hilb", "--gens", "x1", "-n", "2", "-t"], ["hilb", "--gens", "x1", "-n", "2", "--through"],
    ])
    def test_integer_options(self, capsys, argv, value):
        # int() read these as 10, 3, 3 and 4 before; a leading '-' still
        # reads, so -t -3 and -n -2 keep their domain and format errors
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 2
        assert f"expected a decimal integer, got {value!r}" in capsys.readouterr().err


# each verb's required arguments, an input file name by default; the parser
# stops before any file is read
VERB_ARGS = {"hilb": ["-t", "3", "in.txt"], "characterize": ["-d", "3", "in.txt"],
             "dlex": ["-d", "3", "in.txt"], "sqdlex": ["-d", "3", "in.txt"],
             "lexarea": ["--area", "(2,4)", "in.txt"], "area": ["check", "(2,4)"], "complex": ["cm", "in.txt"]}


class TestCapFlag:
    """No verb takes --cap: the Koszul oracle's lcm-lattice bound is set only
    by a direct call koszul_betti(I, cap=...), and every verb keeps the
    default."""

    @pytest.mark.parametrize("argv", [[verb, *VERB_ARGS.get(verb, ["in.txt"])] for verb, *_ in dreglex.cli.VERBS])
    def test_verbs_without_enumeration_reject_cap(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cap", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 5" in capsys.readouterr().err

    def test_koszul_cap_still_bites(self, capsys, monkeypatch, running):
        monkeypatch.setattr(dreglex.cli, "koszul_betti", functools.partial(dreglex.cli.koszul_betti, cap=1))
        code, out, err = run(capsys, "betti", "--method", "koszul", running)
        assert (code, out) == (1, "")
        assert err.startswith("error: lcm lattice exceeds the cap of 1 multidegrees")


class TestRingSize:
    """A ring without variables, or with more than MAX_VARIABLES of them, is
    a format error however it is given; so is a complex with more vertex
    slots.  The size is refused before any exponent vector is built."""

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_inline_ring_size_exit_2(self, capsys, n):
        code, out, err = run(capsys, "betti", "--gens", "x1", "-n", n)
        assert (code, out) == (2, "")
        assert err == f"format error: ground ring needs at least one variable, got {n}\n"

    def test_file_header_ring_size_exit_2(self, capsys, tmp_path):
        path = tmp_path / "empty-ring.ideal"
        path.write_text("n=0\n")
        code, _, err = run(capsys, "betti", str(path))
        assert code == 2
        assert err == "format error: ground ring needs at least one variable, got 0\n"

    HUGE = "6999999999999"

    def test_huge_ring_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.ideal"
        path.write_text(f"n={self.HUGE}\nx1^2\n")
        expected = f"format error: ground ring allows at most {MAX_VARIABLES} variables, got {self.HUGE}\n"
        assert run(capsys, "hilb", "-t", "2", str(path)) == (2, "", expected)
        assert run(capsys, "hilb", "-t", "2", "--gens", "x1^2", "-n", self.HUGE) == (2, "", expected)

    def test_huge_complex_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.cx"
        path.write_text(f"vertices={self.HUGE}\n1,2\n")
        expected = f"format error: a complex allows at most {MAX_VARIABLES} vertex slots, got {self.HUGE}\n"
        assert run(capsys, "complex", "fvec", str(path)) == (2, "", expected)

    def test_limit_is_inclusive(self):
        assert GroundRing(MAX_VARIABLES).num_vars == SimplicialComplex(MAX_VARIABLES).vertex_count == MAX_VARIABLES
        with pytest.raises(DomainError, match=f"got {MAX_VARIABLES + 1}$"):
            GroundRing(MAX_VARIABLES + 1)
        with pytest.raises(DomainError, match=f"got {MAX_VARIABLES + 1}$"):
            SimplicialComplex(MAX_VARIABLES + 1)


class TestParserReuse:
    def test_parser_built_once(self):
        assert dreglex.cli.build_parser() is dreglex.cli.build_parser()

    def test_flags_do_not_leak_between_calls(self, capsys, monkeypatch, running):
        _, out, _ = run(capsys, "hilb", "--json", "-t", "3", running)
        assert json.loads(out) == {"t": 3, "value": 8}
        _, out, _ = run(capsys, "hilb", "-t", "3", running)
        assert out == "8\n"
        methods = []
        real_auto, real_koszul = dreglex.cli.betti_auto, dreglex.cli.koszul_betti
        monkeypatch.setattr(dreglex.cli, "betti_auto", lambda *a: methods.append("auto") or real_auto(*a))
        monkeypatch.setattr(dreglex.cli, "koszul_betti", lambda *a, **k: methods.append("koszul") or real_koszul(*a, **k))
        run(capsys, "betti", "--method", "koszul", running)
        run(capsys, "betti", running)
        assert methods == ["koszul", "auto"]


def full_parse_main(argv):
    """``main`` reading every command line through the top-level parser,
    which hands the arguments after a verb to that verb's sub-parser: the
    reference the one-pass dispatch must match byte for byte."""
    args = dreglex.cli.build_parser().parse_args(argv)
    try:
        text = args.text(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except DregLexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def outcome(capsys, entry, argv):
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


SS5 = ["--gens", "x1^2,x1*x2,x1*x3,x2^2", "-n", "5"]
# (argv, exit code); IDEAL, HILB and CX stand for input files
PARITY = [
    (["hilb", "-t", "3", "IDEAL"], 0),
    (["hilb", "--through", "9", "--quotient", "--json", "IDEAL"], 0),
    (["betti", "IDEAL"], 0),
    (["lex", "IDEAL"], 0),
    (["sqlex", "IDEAL"], 0),
    (["dlex", "-d", "5", "IDEAL"], 0),
    (["sqdlex", "-d", "3", "IDEAL"], 0),
    (["phi", "--gens", "x1^2,x1*x2,x2^2", "-n", "2"], 0),
    (["phi-inv", "--gens", "x1*x2,x1*x3", "-n", "3"], 0),
    (["phi-tilde", "--gens", "x1^2,x1*x2", "-n", "3"], 0),
    (["lseq", "--gens", "x1^2,x1*x2,x2^2", "-n", "3"], 0),
    (["characterize", "-d", "3", "HILB"], 0),
    (["reg-range", "IDEAL"], 0),
    (["sq-reg-range", "IDEAL"], 0),
    (["area", "check", "(1,3);(2,2)"], 0),
    (["lexarea", *SS5, "--area", "(4,8)"], 0),
    (["complex", "fvec", "CX"], 0),
    *(([verb, "--help"], 0) for verb, *_ in dreglex.cli.VERBS),
    (["--help"], 0),
    (["--version"], 0),
    ([], 2),
    (["frobnicate", "IDEAL"], 2),
    (["betti", "--bogus", "IDEAL"], 2),
    (["betti", "IDEAL", "extra", "--cap", "5", "more"], 2),
    (["betti", "--method", "bogus", "IDEAL"], 2),
    (["hilb", "IDEAL"], 2),
    (["hilb", "-t", "3", "--", "IDEAL"], 0),
    (["hilb", "--=x", "IDEAL"], 2),
    (["hilb", "-=x", "IDEAL"], 2),
    (["hilb", "-t", "3", "IDEAL", "--version"], 2),
    (["hilb", "--he"], 0),
    (["hilb", "-t", "3", "--", "--=x"], 2),
    (["lex", "missing.ideal"], 2),
    (["dlex", "-d", "2", "IDEAL"], 1),
]


class TestDispatchParity:
    """A command line starting with a verb is parsed by that verb's
    sub-parser alone; every output byte, usage errors included, is that of
    the full parse."""

    @pytest.mark.parametrize("argv, code", PARITY, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_same_bytes_as_full_parse(self, capsys, tmp_path, running, argv, code):
        hilb, cx = tmp_path / "running.hilb", tmp_path / "path.cx"
        hilb.write_text("n=4 role=ideal\n0\n0\n2\n8\n20\n40\n70\n112\n168\n")
        cx.write_text("vertices=3\n1,2\n2,3\n")
        files = {"IDEAL": running, "HILB": str(hilb), "CX": str(cx)}
        argv = [files.get(a, a) for a in argv]
        got = outcome(capsys, main, argv)
        assert got == outcome(capsys, full_parse_main, argv)
        assert got[0] == code, got

    def test_verb_leftovers_reported_by_the_top_level_parser(self, capsys, running):
        _, out, err = outcome(capsys, main, ["betti", "--bogus", running])
        assert out == ""
        assert err.endswith("\ndreglex: error: unrecognized arguments: --bogus\n")


class TestHilbertFileWork:
    def test_through_reads_one_numerator_and_no_point_sums(self, capsys, monkeypatch):
        """``hilb --through`` reads H(0..T) off one numerator by running sums:
        one pivot recursion, and no binomial sum per degree."""
        ideals = dreglex.ideals
        depths, sums, depth = [], [], [0]
        real_numerator, real_sum = ideals._numerator, ideals.series_coefficient

        def numerator(gens):
            depths.append(depth[0])
            depth[0] += 1
            try:
                return real_numerator(gens)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(ideals, "_numerator", numerator)
        monkeypatch.setattr(ideals, "series_coefficient", lambda *a: sums.append(a) or real_sum(*a))
        edges = "12 13 14 23 25 36 45 47 56 58 69 78 89".split()
        gens = ",".join(f"x{a}*x{b}" for a, b in edges)
        code, out, _ = run(capsys, "hilb", "--through", "12", "--gens", gens, "-n", "9")
        assert code == 0 and len(out.splitlines()) == 14
        assert depths.count(0) == 1 and len(depths) > 1
        assert sums == []
