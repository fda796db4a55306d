import json
import random

import pytest

from heckext.cli import Config, main
from heckext.grammar import ParseError, parse_element, render_element
from heckext.weyl import S0, S1

from test_graded import rand_symbol


class TestGrammar:
    def test_parse_symbols(self, alg5):
        W = alg5.weyl
        assert parse_element(alg5, "tau(w(0;))") == alg5.one()
        assert parse_element(alg5, "bm(w(2; s0 s1))") == alg5.beta(-1, W.element(2, (S0, S1)))
        assert parse_element(alg5, "3*phi(w(1; s1))") == alg5.phi(W.element(1, (S1,))).scale(3)
        assert parse_element(alg5, "e(1)") == alg5.embed(alg5.hecke.idempotent(1))
        assert parse_element(alg5, "0") == alg5.zero()

    def test_parse_sums_and_signs(self, alg5):
        W = alg5.weyl
        x = parse_element(alg5, "b0(w(0; s0)) - 2*bp(w(0;)) + tau(w(3;))")
        expected = (
            alg5.beta(0, W.s0)
            - alg5.beta(1, W.identity).scale(2)
            + alg5.tau(W.omega(3))
        )
        assert x == expected
        assert parse_element(alg5, "-bm(w(0;))") == -alg5.beta(-1, W.identity)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "tau(w(0; s0 s0))",      # non-alternating word
            "b0(w(0;))",             # sign-0 symbol at a torus element
            "zz(w(0;))",             # unknown kind
            "tau(w(0 s0))",          # missing semicolon
            "tau(w(0;)) tau(w(0;))", # missing operator
            "2 tau(w(0;))",          # missing '*'
        ],
    )
    def test_parse_errors_carry_positions(self, alg5, text):
        with pytest.raises(ParseError) as err:
            parse_element(alg5, text)
        assert "position" in str(err.value)

    def test_render_parse_round_trip_on_random_elements(self, alg5):
        rng = random.Random(113)
        for _ in range(150):
            x = alg5.zero()
            for _ in range(rng.randint(0, 4)):
                x = x + alg5.symbol_element(
                    rand_symbol(rng, alg5, rng.randint(0, 3), 4)
                ).scale(rng.randrange(1, 5))
            assert parse_element(alg5, render_element(x)) == x

    def test_render_is_canonical_fixed_point(self, alg5):
        for text in (
            "0",
            "tau(w(0;))",
            "2*bm(w(1; s0)) + b0(w(0; s1))",
            "tau(w(2;)) - 2*phi(w(0; s0 s1))",
        ):
            assert render_element(parse_element(alg5, text)) == text


class TestCli:
    def test_mul_matches_spec_examples(self, capsys):
        assert main(["mul", "b0(w(0; s1))", "b0(w(0; s0))", "--p", "5"]) == 0
        assert capsys.readouterr().out.strip() == "0"
        assert main(["mul", "bm(w(0;))", "bp(w(0;))", "--p", "5"]) == 0
        assert capsys.readouterr().out.strip() == "0"
        assert main(["mul", "tau(w(0; s0))", "tau(w(0; s0))", "--p", "5"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == (
            "tau(w(0; s0)) + tau(w(1; s0)) + tau(w(2; s0)) + tau(w(3; s0))"
        )

    def test_mul_json_schema(self, capsys):
        assert main(["mul", "b0(w(0; s1))", "bp(w(0;))", "--p", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "terms": [{"kind": "ap", "support": {"exp": 0, "word": ["s1"]}, "coeff": 1}]
        }

    def test_parse_error_exit_code(self, capsys):
        assert main(["mul", "tau(w(0 s0))", "tau(w(0;))", "--p", "5"]) == 2
        assert "position" in capsys.readouterr().err

    def test_verify_suite_passes_and_exit_zero(self, capsys):
        rc = main(["verify", "relators", "--p", "5", "--quiet"])
        assert rc == 0
        assert "OK: 36/36" in capsys.readouterr().out

    def test_verify_literal_epsilon_bound_fails(self, capsys):
        rc = main(
            ["verify", "relators", "--p", "5", "--quiet", "--epsilon-bound", "p-1"]
        )
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

    def test_verify_json_schema(self, capsys):
        rc = main(["verify", "cup-independent", "--p", "5", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "cup-independent"
        assert all(c["status"] == "pass" for c in payload["checks"])
        assert all("name" in c for c in payload["checks"])

    def test_verify_deterministic_given_parameters(self, capsys):
        main(["verify", "assoc", "--p", "5", "--samples", "60", "--seed", "9"])
        first = capsys.readouterr().out
        main(["verify", "assoc", "--p", "5", "--samples", "60", "--seed", "9"])
        second = capsys.readouterr().out
        strip = lambda s: [l for l in s.splitlines() if not l.startswith(("OK", "FAILED"))]
        assert strip(first) == strip(second)

    def test_verify_all_deterministic_given_parameters(self, capsys):
        args = ["verify", "all", "--p", "5", "--samples", "80", "--seed", "4",
                "--max-length", "3", "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert first == capsys.readouterr().out

    def test_primitive_root_override(self, capsys):
        # with root 3 the character id sends the generator to 3
        assert main(["mul", "e(1)", "tau(w(1;))", "--p", "5", "--root", "3"]) == 0
        with_root3 = capsys.readouterr().out
        assert main(["mul", "e(1)", "tau(w(1;))", "--p", "5"]) == 0
        with_default = capsys.readouterr().out
        assert with_root3 != with_default
        assert main(["mul", "tau(w(0;))", "tau(w(0;))", "--p", "5", "--root", "4"]) == 2

    def test_table_degree3(self, capsys):
        rc = main(["table", "3", "--p", "5", "--max-length", "1", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 3
        rows = {r["symbol"]: r for r in payload["rows"]}
        # phi at the identity: torus shifts, reflections kill it (lengths add)
        row = rows["phi(w(0;))"]
        assert row["left_t_w0"] == "phi(w(1;))"
        assert row["left_t_s0"] == "0"
        assert row["right_t_s1"] == "0"

    def test_table_degree1_row_matches_left_table(self, capsys):
        rc = main(["table", "1", "--p", "5", "--max-length", "1", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {r["symbol"]: r for r in payload["rows"]}
        assert rows["bm(w(0; s1))"]["left_t_s0"] == "-bp(w(0; s0 s1))"

    def test_relators_export(self, capsys):
        rc = main(["relators", "--p", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 5
        assert len(payload["relators"]) == 36
        names = {r["name"] for r in payload["relators"]}
        assert "deg0_01" in names and "kernel_15" in names

    @pytest.mark.parametrize("suite, samples", [("e0", "-3"), ("involutions", "0")])
    def test_verify_rejects_samples_below_one(self, capsys, suite, samples):
        # a sampled check over no samples would pass having checked nothing
        assert main(["verify", suite, "--p", "5", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert "--samples must be >= 1" in captured.err
        assert "PASS" not in captured.out
        with pytest.raises(ValueError, match="--samples must be >= 1"):
            Config(samples=int(samples))

    def test_bad_prime_rejected(self, capsys):
        assert main(["mul", "tau(w(0;))", "tau(w(0;))", "--p", "9"]) == 2
