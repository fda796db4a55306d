import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckext import ExtAlgebra
from heckext.cli import Config, main
from heckext.graded import BasisSymbol, GradedElement
from heckext.grammar import ParseError, parse_element, render_element
from heckext.verify import run
from heckext.weyl import S0, S1

from conftest import algebra
from scanner_oracle import _parse_scanned
from test_graded import rand_symbol


# token soup: every token of the grammar, and some that only look like one,
# among them those where a token reader and a character scanner can part:
# digits run into a name, a sign set apart from its digits, non-ASCII word
# characters and whitespace, and names run together
TOKEN_TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(
        ["tau", "bm", "a0", "phi", "e", "w", "(", ")", ";", "s0", "s1", "*", "+", "-",
         " ", "0", "3", "12", "²", "١", "9" * 4400,
         "3x", "5x", "+ 5", "_", "é", "\u00a0", "s0s1", "w("]
    )).map("".join),
)
ORACLE_SETTINGS = settings(max_examples=500, deadline=None)
WHITESPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\u00a0"])


@st.composite
def well_formed_text(draw):
    """Sums of one to four terms with whitespace around every token, signed
    and unsigned, coefficients from 0, e(m) among them, and words of length
    0-8, one in ten with a repeated letter."""
    ws = lambda: draw(WHITESPACE)
    text = ""
    for i in range(draw(st.integers(1, 4))):
        text += ws() + draw(st.sampled_from(["", "-"] if i == 0 else ["+", "-"])) + ws()
        if draw(st.booleans()):
            text += f"{draw(st.integers(0, 30))}{ws()}*{ws()}"
        exp = draw(st.sampled_from(["", "+", "-"])) + str(draw(st.integers(0, 40)))
        if draw(st.integers(0, 7)) == 0:
            text += f"e{ws()}({ws()}{exp}{ws()}){ws()}"
            continue
        first, length = draw(st.integers(0, 1)), draw(st.integers(0, 8))
        letters = [(first + j) % 2 for j in range(length)]
        if length > 1 and draw(st.integers(0, 9)) == 0:
            letters[-1] = letters[-2]
        word = "".join(draw(st.sampled_from([" ", "  ", "\t"])) + f"s{l}" for l in letters)
        kind = draw(st.sampled_from(["tau", "bm", "b0", "bp", "am", "a0", "ap", "phi"]))
        text += f"{kind}{ws()}({ws()}w{ws()}({ws()}{exp}{ws()};{word}{ws()}){ws()}){ws()}"
    return text


def assert_parsers_agree(alg, text):
    """parse_element reads text as the scanner oracle does: an equal
    element, whose row holds a character key exactly when the oracle's
    does, or a ParseError with the same message and position."""
    try:
        expected = _parse_scanned(alg, text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse_element(alg, text)
        assert (str(got.value), got.value.pos) == (str(err), err.pos)
        return
    x = parse_element(alg, text)
    assert x == expected and (4 in map(len, x.row)) == (4 in map(len, expected.row))


class TestGrammar:
    def test_parse_symbols(self, alg5):
        W = alg5.weyl
        assert parse_element(alg5, "tau(w(0;))") == alg5.one()
        assert parse_element(alg5, "bm(w(2; s0 s1))") == alg5.beta(-1, W.element(2, (S0, S1)))
        assert parse_element(alg5, "3*phi(w(1; s1))") == alg5.phi(W.element(1, (S1,))).scale(3)
        assert parse_element(alg5, "e(1)") == alg5.embed(alg5.hecke.idempotent(1))
        assert parse_element(alg5, "0") == alg5.zero()

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_parsed_idempotents_are_their_definition(self, p):
        # c * e(m) is c times -sum_e u0^(-m e) tau_{omega^e}, with no zero stored
        alg = ExtAlgebra(p)
        W, F = alg.weyl, alg.field
        for c in (1, 3, p, p + 2):
            for m in range(-1, W.n + 1):
                expected = {BasisSymbol(0, None, W.omega(e)): -c * F.root_pow(-m * e) % p
                            for e in range(W.n)}
                expected = {sym: x for sym, x in expected.items() if x}
                got = parse_element(alg, f"{c}*e({m})")
                assert got == GradedElement(alg, expected), (c, m)

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
            "²*tau(w(0;))",          # a non-ASCII digit as coefficient
            "tau(w(²;))",            # a non-ASCII digit as exponent
            pytest.param("1" * 5000 + "*tau(w(0;))", id="5000-digit-coefficient"),
            "١*tau(w(0;))",          # an Arabic-Indic digit one
        ],
    )
    def test_parse_errors_carry_positions(self, alg5, text):
        with pytest.raises(ParseError) as err:
            parse_element(alg5, text)
        assert "position" in str(err.value)

    @ORACLE_SETTINGS
    @given(TOKEN_TEXT)
    def test_parse_returns_an_element_or_raises_parse_error(self, alg5, text):
        try:
            assert isinstance(parse_element(alg5, text), GradedElement)
        except ParseError:
            pass

    @ORACLE_SETTINGS
    @given(TOKEN_TEXT)
    def test_parse_agrees_with_the_scanner_on_token_text(self, alg5, text):
        assert_parsers_agree(alg5, text)

    @ORACLE_SETTINGS
    @given(st.sampled_from([5, 7, 13, 1009]), well_formed_text())
    def test_parse_agrees_with_the_scanner_on_well_formed_text(self, p, text):
        assert_parsers_agree(algebra(p), text)

    @pytest.mark.parametrize("text", [
        pytest.param("e(" + "9" * 5000 + ")", id="5000-digit-idempotent"),
        "tau(w(0; s0s1))",
        "+tau(w(0;))",
        "0",
        "   ",
        "-3*e(5)",
        "e(1) + tau(w(0;))",
        "3x*tau(w(0;))",         # digits run into a name: the coefficient is 3
        "tau(5x; s0)",           # ... or the name is 5x
        "3*5tau(w(0;))",
        "tau(w(0; 5s0))",
        "tau(w(+ 5;))",          # a sign set apart from its digits
        "e(- 5)",
        "tau(w(-5;)) - e(+3)",
        "tau(w(5²;))",           # a non-ASCII digit after ASCII ones
        "tau(w(²5;))",
        pytest.param("1" * 5000 + "*e(1)", id="5000-digit-coefficient-of-e"),
        pytest.param("tau(w(-" + "1" * 5000 + ";))", id="5000-digit-signed-exponent"),
        "tau(w(0; s0 s0) )",     # invalid once the weyl element's ')' is read
        "b0(w(3;) )",            # ... or the symbol's
        "b0(w(3;)",
        "tau(w(0; s0",
        "tau(w(0;)) +",
        "tau(w(0;)) 3",
        pytest.param("tau(w(0;))" + " " * 100_000, id="trailing-whitespace"),
    ])
    def test_parse_agrees_with_the_scanner_on_edge_cases(self, alg5, text):
        assert_parsers_agree(alg5, text)

    def test_render_parse_round_trip_on_random_elements(self, alg5):
        rng = random.Random(113)
        for _ in range(150):
            x = alg5.zero()
            for _ in range(rng.randint(0, 4)):
                x = x + alg5.symbol_element(
                    rand_symbol(rng, alg5, rng.randint(0, 3), 4)
                ).scale(rng.randrange(1, 5))
            assert parse_element(alg5, render_element(x)) == x

    @pytest.mark.parametrize("text", ["0", " 0 ", "00", "05", "007", "-0"])
    def test_only_a_lone_zero_reads_as_zero(self, alg5, text):
        # any other integer alone is a coefficient without its '*', as "3" is
        assert_parsers_agree(alg5, text)
        if text.strip() == "0":
            assert parse_element(alg5, text) == alg5.zero()
            return
        with pytest.raises(ParseError) as err:
            parse_element(alg5, text)
        assert (str(err.value), err.value.pos) == (
            f"expected '*' after a coefficient (at position {len(text)})", len(text))

    def test_render_is_canonical_fixed_point(self, alg5):
        for text in (
            "0",
            "tau(w(0;))",
            "2*bm(w(1; s0)) + b0(w(0; s1))",
            "tau(w(2;)) - 2*phi(w(0; s0 s1))",
        ):
            assert render_element(parse_element(alg5, text)) == text


# SHA-256 of the stdout of `heckext mul LEFT RIGHT --p P` in text and in
# --format json, recorded before results kept their character keys
# unexpanded: junction products, e(m) on either side, and sums of e(m).
MUL_DIGESTS = [
    (101, "b0(w(7; s1 s0 s1))", "bp(w(57; s1))",
     "f51672c36febe205f55f119e03320c10a142e71c86691af15478cd0bef22d29c",
     "7bb7a0f2b4148855d2146b8c0432b857b321942d0056084dbfb1f7d009900c7e"),
    (101, "3*e(5)", "bm(w(1; s0))",
     "ddf1f551caeb36bcb7794fbf5ba10176cc1545cdcb17f6804a4fbef853153d46",
     "4240f9da512663d09903ee1103f9fd69fb34acab21610717d5ad58d00ffb40c3"),
    (101, "am(w(3; s1 s0))", "e(7)",
     "f87bae1a02f95b68e3fccb7a4c88a8adc78af40e7bdc1f4775e6df3da1633278",
     "7e81514efc0781e3e57c739ad3fa2b47aa90fc8f9bee0b0dfc3569e6190f0ab1"),
    (101, "e(2) + e(9)", "b0(w(4; s0 s1))",
     "d4eacd6c2d65dc86a82ae787198100b4ebfb8ed1788083404078b2b654c2353e",
     "beac75a14e66b08a4304f8a564f3faea4980d5b91bacd48ae690c27d5a1d01c3"),
    (1009, "a0(w(790; s0 s1))", "b0(w(575; s1))",
     "f032185265bcf300b89b8e983079c19ce8b17293c7370ecb049b0812e2777d4a",
     "6fb8fdf812cc10d2f1f778ea41d13b374b0dd2e3def8ba1f9849d69214bea1e1"),
    (1009, "bm(w(179; s0 s1 s0))", "b0(w(285; s0))",
     "c2e16624ff8b6f0c3813d146c61f650b11631106222e12032209e998242bf749",
     "c686062d99d320cce484cb31d082d0e836a907ef27523419020ae462f0639f23"),
    (1009, "3*e(5)", "bm(w(1; s0))",
     "706bc9e2925a3366bc8a9e27e5f6d4e8ce1ccf790bc9be84c4bd0fe42c3cddd5",
     "eafacf83b70c89c7084a138e4cf73d75989230b0dfe066612d16750a9380c3bd"),
    (1009, "bp(w(11; s0 s1))", "5*e(-3)",
     "610b95efdce3e7afaf77d8af56ffd2313bac66bf3e6c3b2190af2825c879e33c",
     "28c8053074db2dd0de30b77a09f3c56a6246044adc70218a120b785542edb7fc"),
    (1009, "e(5) + e(11)", "a0(w(2; s1))",
     "1b997efc5e160a39caba1ede4e4d071911b1f2a7bc924fef11b8bbcc89df241b",
     "c6170c1bcc6bbfa21ee374f2cf57c392b13adc5a63916dd9284e875f035d6622"),
    (1009, "e(4) + 2*bp(w(3; s1))", "b0(w(1; s1 s0))",
     "7062c90a14560d9f1729396b6b585425fb2385fb902bad3a5394b358466caef9",
     "7b7bc28e0fc0f6645ef43a9a68f39ade365c8f7ac58c225fc42c6a035c58f36a"),
]


# SHA-256 of the stdout of `heckext verify all --p P --max-length 8` in text,
# with the elapsed time removed from the summary line, and in --format json,
# recorded before the suites were rewritten as checks run by one runner.
VERIFY_DIGESTS = [
    (5, "339aa29a619aac00b594de1a031c745f2879f9097e9f4c3c47a597cbc7a66755",
     "43da8f3aeb1f7f413d21e17c8fc6c29b9d95d15d6b643b1714c3e2f8d25a358c"),
    (7, "d0875df9be30e1c330c7562274e2ccde6176e53ab1e3fe613eef31cbd4453594",
     "0ffaf97987b7e6bc430a0a29e1b05d09772b15aebb039c0abbd78b2f9fc0ddbb"),
]
# SHA-256 of the stdout of `heckext table D --p 5 --max-length 3` in text and
# in --format json, recorded before the lengths-add rules left the letter table.
TABLE_DIGESTS = [
    (1, "6aae472a93262269cb718382392ea6869a08c865218ed2be46be21925ff45584",
     "684963237ac7e964d052420a4bbff1517cbe9f54ebfa3cc834b20aafa05c63e2"),
    (2, "6a4d65ee26196d63e58060513b04cf34a1734be04c16d241d040462982188400",
     "0c625f42693858160fe7e6f028c2164d3ba375c3c81e671821080f3fdfcbd3cf"),
    (3, "6ec2de8312dc485915d9c017754e098eb8c4ab475923e5fe2aa448f24f6abc73",
     "f21c7b0c729937eca27ab78ae1faf50d7add9fc18c3fd6e11e788d008017a1e9"),
]
# the suites of the two restated checks at the benchmark's p (text, time stripped)
SUITE_DIGESTS_P13 = [
    ("rightaction", "46f85faba31cb0a558a1456a85b41775531365f2a1f263f6422ef8ad1c19d7e5"),
    ("e0", "84d2fa2fae381744df9014efe2df6214a9c90d4780043baca9f4ac8de19029fd"),
]
# SHA-256 of the stdout of `heckext relators --p P --epsilon-bound B`, recorded
# while each free idempotent was p - 1 words T_w0^i, before the token E(m)
RELATOR_DIGESTS = [
    (5, "p-2", "4e62d759bfc428eba412f5522a893245296d5bab89d3cff93406eace9225e63d"),
    (5, "p-1", "339e1a09f821cc2070b1d9586360158fa8686df7aaa1efa4d3fb45e17315c485"),
    (13, "p-2", "96b691ade52d2f7d0c81f9766d3ff35664a5ec6edb342b519d02b89cdf611bc7"),
    (13, "p-1", "575d60be2275b3e3f2706b7a05b8a89ea99bf3a186c889bad2cc9d75e70e6a71"),
]
# SHA-256 of `heckext [COMMAND] --help` at 80 columns, recorded while cli.py
# imported verify.py for the suite names
HELP_DIGESTS = [
    ([], "5934fcb159aec11f10f5bfea74188aa89ff4545789736b98a246b5784c3bf210"),
    (["mul"], "7cf937fb2cdd5f72b1f3200c56efbe1e9c26f5cf10b84f17b2e4c40600de50ef"),
    (["verify"], "23f6bfe6d88aa080175f96b7467255c0af562eeacf4e4f5f6b3b6020239745f4"),
    (["table"], "fdb87fe74bc59076be929c69b181f0f48dc5ad01f5fa4a32c48bea76ca3829fd"),
    (["relators"], "fd1d0cab3c871dab203fb3b7c4197bdba3ecab3ac98060d8ef14d95d4fbf7625"),
]


class TestCli:
    @pytest.mark.parametrize("p, left, right, text_digest, json_digest", MUL_DIGESTS)
    def test_mul_outputs_of_expanding_products_are_unchanged(
        self, capsys, p, left, right, text_digest, json_digest
    ):
        for fmt, digest in (("text", text_digest), ("json", json_digest)):
            assert main(["mul", left, right, "--p", str(p), "--format", fmt]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, fmt

    @pytest.mark.parametrize("p, text_digest, json_digest", VERIFY_DIGESTS)
    def test_verify_all_outputs_are_unchanged(self, capsys, p, text_digest, json_digest):
        args = ["verify", "all", "--p", str(p), "--max-length", "8"]
        assert main(args) == 0
        text = re.sub(r", [0-9.]+s\)\n\Z", ")\n", capsys.readouterr().out)
        assert hashlib.sha256(text.encode()).hexdigest() == text_digest
        assert main(args + ["--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == json_digest

    @pytest.mark.parametrize("degree, text_digest, json_digest", TABLE_DIGESTS)
    def test_table_outputs_are_unchanged(self, capsys, degree, text_digest, json_digest):
        args = ["table", str(degree), "--p", "5", "--max-length", "3", "--format"]
        for fmt, digest in (("text", text_digest), ("json", json_digest)):
            assert main(args + [fmt]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, fmt

    @pytest.mark.parametrize("command, digest", HELP_DIGESTS)
    def test_help_is_unchanged(self, capsys, monkeypatch, command, digest):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit:
            main(command + ["--help"])
        assert exit.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("p, bound, digest", RELATOR_DIGESTS)
    def test_relators_exports_are_unchanged(self, capsys, p, bound, digest):
        assert main(["relators", "--p", str(p), "--epsilon-bound", bound]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("suite, text_digest", SUITE_DIGESTS_P13)
    def test_verify_suite_outputs_at_p13_are_unchanged(self, capsys, suite, text_digest):
        assert main(["verify", suite, "--p", "13", "--max-length", "8"]) == 0
        text = re.sub(r", [0-9.]+s\)\n\Z", ")\n", capsys.readouterr().out)
        assert hashlib.sha256(text.encode()).hexdigest() == text_digest

    def test_smallest_valid_options_leave_no_check_empty(self):
        report = run(ExtAlgebra(5), "all", max_length=1, samples=1)
        assert [r for results in report.values() for r in results if not r.ok] == []

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

    def test_verify_presentation_catches_the_literal_epsilon_bound(self, capsys):
        rc = main(["verify", "presentation", "--p", "5", "--epsilon-bound", "p-1"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "presentation_free_idempotents: FAIL  ((0, 'term count'))" in out

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

    # each command takes only the options it reads, and refuses the others
    @pytest.mark.parametrize("argv, option, value", [
        (["mul", "e(0)", "e(0)"], "--max-length", "2"),
        (["mul", "e(0)", "e(0)"], "--samples", "0"),
        (["mul", "e(0)", "e(0)"], "--seed", "1"),
        (["mul", "e(0)", "e(0)"], "--epsilon-bound", "p-1"),
        (["table", "1"], "--samples", "10"),
        (["table", "1"], "--seed", "1"),
        (["table", "1"], "--epsilon-bound", "p-1"),
        (["relators"], "--max-length", "2"),
        (["relators"], "--samples", "10"),
        (["relators"], "--seed", "1"),
        (["relators"], "--format", "text"),
    ])
    def test_a_command_refuses_an_option_it_does_not_read(self, capsys, argv, option, value):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--p", "5", option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err

    def test_config_defaults_and_refusals(self):
        defaults = dict(p=5, primitive_root=None, max_length=8, samples=1000, seed=0,
                        fmt="text", epsilon_bound="p-2")
        cfg = Config()
        assert {name: getattr(cfg, name) for name in defaults} == defaults
        assert {name: getattr(Config, name) for name in defaults} == defaults
        cfg = Config(p=13, seed=4)
        assert (cfg.p, cfg.seed, cfg.max_length, Config.p) == (13, 4, 8, 5)
        with pytest.raises(ValueError, match="^--max-length must be >= 1$"):
            Config(max_length=0)
        with pytest.raises(ValueError, match="^--samples must be >= 1$"):
            Config(samples=0)
        with pytest.raises(TypeError, match="'bogus'"):
            Config(bogus=1)

    def test_an_option_left_out_takes_its_config_default(self, capsys):
        assert main(["relators"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["p"], payload["epsilon_bound"]) == (Config.p, Config.epsilon_bound)
