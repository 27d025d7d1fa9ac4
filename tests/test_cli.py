"""End-to-end command-line checks, run in-process.

Exit code contract: 0 definite answer, 2 honest unknown, 1 for every
kind of error (usage, parse, precondition, resource).
"""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ivp
from ivp import adelic, cli, overrings, padic
from ivp.cli import main
from ivp.config import Config
from ivp.dsl import parse_poly, parse_set
from ivp.exact import vp
from ivp.padic import closure, member

TWO_POWERS = "seq(2; 0, 1, 0, -lim)"
TWO_POWERS_CLOSED = "seq(2; 0, 1, 0, +lim)"
RING_INT = '{"exceptional": {}, "default": "full"}'
REP_FULL2 = '{"unitary": {"2": "full(2)"}, "default": "full"}'
REP_POWER_TAIL = '{"unitary": {}, "default": "power(1)"}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


def test_member_yes_no(capsys):
    code, out, _ = run(capsys, "member", "--set", "full(2)", "--x", "1/3")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "member", "--set", "ball(2; 0, 2)", "--x", "1")
    assert code == 0 and out.strip() == "no"
    # a value outside Z_p violates the membership precondition
    code, _, err = run(capsys, "member", "--set", "full(2)", "--x", "1/2")
    assert code == 1 and "error" in err


def test_json_flag_position(capsys):
    code, payload, _ = run_json(capsys, "member", "--set", "full(3)", "--x", "5")
    assert code == 0 and payload == {"answer": True}
    # the flag also parses after the subcommand
    code = main(["member", "--set", "full(3)", "--x", "5", "--json"])
    assert json.loads(capsys.readouterr().out) == {"answer": True}


def test_closure_output_parses(capsys):
    code, out, _ = run(capsys, "closure", "--set", TWO_POWERS)
    assert code == 0
    s = parse_set(out.strip())
    assert member(0, s)
    assert s == closure(parse_set(TWO_POWERS))


def test_intval(capsys):
    code, out, _ = run(capsys, "intval", "--poly", "(X^2 - X)/2",
                       "--set", "full(2)")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "intval", "--poly", "(X^2 + 1)/2",
                       "--set", "full(2)")
    assert code == 0 and out.strip() == "no"


def test_maxval(capsys):
    code, out, _ = run(capsys, "maxval", "--poly", "X^2 - 17",
                       "--set", "full(2)")
    assert code == 0 and "infinity" in out
    code, payload, _ = run_json(capsys, "maxval", "--poly", "X^2 + 1",
                                "--set", "full(2)")
    assert code == 0 and payload["value"] == 1


def test_roots_json(capsys):
    code, payload, _ = run_json(capsys, "roots", "--poly", "X^2 - 17",
                                "--set", "full(2)")
    assert code == 0 and payload["count"] == 2
    assert all(c["kind"] == "hensel" for c in payload["certificates"])
    code, payload, _ = run_json(capsys, "roots", "--poly", "X^2 + 1",
                                "--set", "full(2)")
    assert payload["count"] == 0
    code, payload, _ = run_json(capsys, "roots", "--poly", "3*X - 2",
                                "--set", "full(5)")
    assert code == 0 and payload["count"] == 1
    assert payload["certificates"] == [
        {"ball": "ball(5, 4, 1)", "kind": "exact-rational", "value": "2/3"}]


def test_witness(capsys):
    code, payload, _ = run_json(capsys, "witness", "--poly", "X^2 + 1",
                                "--family", "2: full(2); 5: pts(5; 2)")
    assert code == 0
    assert payload["witness"] == "10/(X^2 + 1)"
    assert payload["exponents"] == {"2": "1", "5": "1"} or \
        payload["exponents"] == {"2": 1, "5": 1}


def test_separate_output_separates(capsys):
    code, out, _ = run(capsys, "separate", "--set", TWO_POWERS,
                       "--alpha", "3")
    assert code == 0
    f = parse_poly(out.strip())
    assert vp(f.eval_at(3), 2) < 0


def test_ring_eq_and_contains(capsys):
    ring_b = '{"exceptional": [], "default": "full"}'
    code, out, _ = run(capsys, "ring-eq", "--r1", RING_INT, "--r2", ring_b)
    assert code == 0 and out.startswith("yes")
    primes_ring = '{"exceptional": {}, "default": "units+p"}'
    code, out, _ = run(capsys, "ring-contains", "--r1", primes_ring,
                       "--r2", RING_INT)
    assert code == 0 and out.startswith("yes")
    code, out, _ = run(capsys, "ring-contains", "--r1", RING_INT,
                       "--r2", primes_ring)
    assert code == 0 and out.startswith("no")


def test_ring_of_power_tail(capsys):
    code, payload, _ = run_json(capsys, "ring-of", "--rep", REP_POWER_TAIL)
    assert code == 0
    assert payload["polynomial"] == "no"
    assert "escape" in payload


def test_ring_of_ten_prime_window_decides(capsys):
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    rep = json.dumps({"unitary": {str(p): f"full({p})" for p in primes},
                      "default": "empty"})
    code, payload, _ = run_json(capsys, "ring-of", "--rep", rep)
    assert code == 0
    assert payload["polynomial"] == "no"
    assert payload["escape"] == "1/(6469693230*X - 1)"


def test_rep_eq(capsys):
    code, out, _ = run(capsys, "rep-eq", "--rep", REP_FULL2,
                       "--ring", RING_INT)
    assert code == 0 and out.startswith("yes")


def test_unitary_and_nonunitary_contains(capsys):
    code, out, _ = run(capsys, "unitary-contains", "--rep", REP_FULL2,
                       "--p", "2", "--alpha", "7")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "nonunitary-contains", "--rep", REP_POWER_TAIL,
                       "--poly", "X")
    assert code == 0 and out.startswith("yes")
    code, out, _ = run(capsys, "nonunitary-contains", "--rep", REP_POWER_TAIL,
                       "--poly", "X - 1")
    assert code == 0 and out.startswith("no")
    assert "witness:" in out
    # X - 8 vanishes at the power 2^3 pinned at 2
    code, out, _ = run(capsys, "nonunitary-contains", "--rep",
                       '{"default": "power(3)"}', "--poly", "X - 8")
    assert code == 0 and out.strip() == "yes (root inside the set at 2)"


def test_superfluous_both_forms(capsys):
    rep = '{"unitary": {"2": "ball(2; 0, 2) | pts(2; 1)"}, "default": "full"}'
    code, out, _ = run(capsys, "superfluous", "--rep", rep,
                       "--p", "2", "--alpha", "4")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "superfluous", "--rep", rep,
                       "--p", "2", "--alpha", "1")
    assert code == 0 and out.strip() == "no"
    rep_q = '{"unitary": {}, "default": "power(1)", "nonunitary": ["X"]}'
    code, out, _ = run(capsys, "superfluous", "--rep", rep_q, "--poly", "X")
    assert code == 0 and out.startswith("yes")
    # X - 9 vanishes at the power 3^2 pinned at 3
    rep_9 = '{"unitary": {}, "default": "power(2)", "nonunitary": ["X - 9"]}'
    code, out, _ = run(capsys, "superfluous", "--rep", rep_9, "--poly", "X - 9")
    assert code == 0 and out.strip() == "yes (root inside the set at 3)"
    # neither selector is an error
    code, _, err = run(capsys, "superfluous", "--rep", rep_q)
    assert code == 1 and "error" in err


def test_min_ext(capsys):
    ring = json.dumps({"exceptional": {"2": TWO_POWERS_CLOSED},
                       "default": "full"})
    code, payload, _ = run_json(capsys, "min-ext", "--ring", ring, "--p", "2")
    assert code == 0
    assert payload["explicit"] == []
    assert len(payload["families"]) == 1
    assert payload["families"][0]["from"] == 0


def test_irredundant(capsys):
    ring = json.dumps({"exceptional": {"2": TWO_POWERS_CLOSED},
                       "default": "empty"})
    code, out, _ = run(capsys, "irredundant", "--ring", ring)
    assert code == 0 and out.startswith("yes")
    code, out, _ = run(capsys, "irredundant", "--ring", RING_INT)
    assert code == 0 and out.startswith("no")


def test_localize_globalize(capsys):
    ring = json.dumps({"exceptional": {"3": "pts(3; 0, 1)"},
                       "default": "full"})
    code, payload, _ = run_json(capsys, "localize", "--ring", ring, "--p", "3")
    assert code == 0
    assert payload["ring"]["default"] == "empty"
    code, payload, _ = run_json(capsys, "globalize",
                                "--family", "3: pts(3; 0, 1)")
    assert code == 0
    assert payload["ring"]["exceptional"][0]["p"] == 3


def test_simple_definite_and_unknown(capsys):
    code, out, _ = run(capsys, "simple", "--ring", RING_INT)
    assert code == 0 and out.startswith("yes")
    assert "set:" in out
    hard = '{"exceptional": {"2": "full(2)"}, "default": "units+p"}'
    code, out, _ = run(capsys, "simple", "--ring", hard)
    assert code == 2 and out.startswith("unknown")


def test_adele_commands(capsys):
    intset = r"Z \ (65 mod 72)"
    code, out, _ = run(capsys, "adele-prod", "--intset", intset,
                       "--candidate", "2: 65, 3: 65")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "adele-hat", "--intset", intset,
                       "--candidate", "2: 65, 3: 65")
    assert code == 0 and out.strip() == "no"
    code, payload, _ = run_json(capsys, "adele-diff", "--intset", intset)
    assert code == 0 and payload["differ"] is True
    code, payload, _ = run_json(capsys, "adele-diff", "--intset", "Z")
    assert code == 0 and payload["differ"] is False


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0 and "passed" in out


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["member", "--set", "full(2)"])     # missing --x
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    capsys.readouterr()


def test_parse_errors_exit_1(capsys):
    code, _, err = run(capsys, "member", "--set", "blob(2)", "--x", "0")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "intval", "--poly", "X +", "--set", "full(2)")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "ring-eq", "--r1", "not json", "--r2", RING_INT)
    assert code == 1 and "error" in err
    # the degree cap applies while the text is read, before any expansion
    code, out, err = run(capsys, "intval", "--poly", "(X+1)^3000/2",
                         "--set", "full(2)")
    assert code == 1 and out == "" and err == (
        "error: 3000 as a degree, over the degree cap (degree_cap = 64)\n")
    code, out, _ = run(capsys, "--degree-cap", "100", "intval",
                       "--poly", "(X+1)^100/2", "--set", "full(2)")
    assert code == 0 and out.strip() == "no"


def test_resource_cap_exit_1(capsys):
    # the closure at 2 has 16 residue classes to visit
    code, _, err = run(capsys, "--residue-cap", "2", "adele-diff",
                       "--intset", r"Z \ (1 mod 8)")
    assert code == 1 and "16 residue classes at prime 2" in err
    # integer-valuedness evaluates deg f + 1 points and enumerates nothing
    code, out, _ = run(capsys, "--residue-cap", "2", "intval",
                       "--poly", "(X^2 - X)/4", "--set", "full(2)")
    assert code == 0 and out.strip() == "no"


def test_unprintably_long_numbers_are_rejected_as_read(capsys):
    # the closure of seq(2; 0, 1, 15000, +lim) has the scale 2^15000,
    # 4516 digits, past the interpreter's 4300-digit printing limit
    for text in ("seq(2; 0, 1, 15000, +lim)", "power(2; 15000)"):
        code, out, err = run(capsys, "closure", "--set", text)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "4300-digit limit" in err
    code, out, _ = run(capsys, "closure", "--set", "seq(2; 0, 1, 14000, +lim)")
    assert code == 0 and parse_set(out.strip()) == closure(
        parse_set("seq(2; 0, 1, 14000, +lim)"))


@pytest.mark.parametrize("argv", [
    ("member", "--set", "ball(3; 1, 100000000)", "--x", "1"),
    ("closure", "--set", "ball(3; -1, 10000)"),
])
def test_deep_balls_are_refused_as_read(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ball modulus 3^") and err.count("\n") == 1
    assert "4300-digit limit" in err


@pytest.mark.parametrize("argv, power", [
    (("localize", "--ring", '{"default": "power(10000)"}', "--p", "3"),
     "3^10000"),
    (("superfluous", "--rep", '{"default": "power(3000000)", "all_min": true}',
      "--poly", "X - 12345"), "3^3000000"),
])
def test_power_tail_rules_are_refused_before_p_to_the_k_is_formed(
        capsys, argv, power):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {power} has about ") and err.count("\n") == 1
    assert "4300-digit limit" in err


@pytest.mark.parametrize("argv, message", [
    (("closure", "--set", "power(5; 0)"),
     "power needs an exponent >= 1, got 0"),
    (("localize", "--ring", '{"default": "power(0)"}', "--p", "2"),
     "power needs an exponent >= 1, got 0"),
    # the scale is checked for size before the sequence is built
    (("closure", "--set", "seq(2; 0, 0, 0, +lim)"),
     "sequence scale must be nonzero"),
])
def test_refused_components_name_the_value(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_extra_arguments_of_a_tail_rule_component_exit_1(capsys):
    for name, extra in (("full", "3"), ("empty", "1"), ("units+p", "2")):
        code, out, err = run(capsys, "closure", "--set", f"{name}(5; {extra})")
        assert code == 1 and out == "" and err == f"error: {name} takes (p)\n"


NINES = "9" * 4300      # the longest integer the readers accept


@pytest.mark.parametrize("argv, words", [
    (("member", "--set", f"ball(2; 0, -{NINES})", "--x", "1"),
     "ball depth must be >= 0, got -999"),
    (("member", "--set", f"seq(2; 0, 1, -{NINES}, +lim)", "--x", "1"),
     "sequence elements leave Z_p"),
    (("member", "--set", f"power(2; -{NINES})", "--x", "1"),
     "power needs an exponent >= 1, got -999"),
    (("member", "--set", f"ball({NINES}; 0, 1)", "--x", "1"),
     "expected a prime, got 999"),
    (("x" * 20000,), "argument command: invalid choice: 'xxx"),
    (("member", "--set", "full(2)", "--x", "1", "--bogus", "x" * 20000),
     "unrecognized arguments: --bogus xxx"),
])
def test_every_error_line_is_bounded(capsys, argv, words):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error: ")]
    assert code == 1 and captured.out == "" and len(errors) == 1
    assert errors[0].startswith(f"error: {words}")
    # the message is cut at 1000 characters
    assert errors[0].endswith("...") and len(errors[0]) == 7 + 1000 + 3


def test_a_degree_past_the_printing_limit_is_refused_by_its_cap(capsys):
    # 2 * (10^4300 - 1) has 4301 digits: the refusal writes its bit length
    code, out, err = run(capsys, "intval", "--poly", f"(X^2)^{NINES}",
                         "--set", "full(2)")
    assert (code, out, err) == (1, "", "error: a 14286-bit number as a degree, "
                                "over the degree cap (degree_cap = 64)\n")


def test_polynomial_reducible_at_every_prime_has_no_certificate(capsys):
    code, out, err = run(capsys, "roots", "--poly", "X^4 + 1", "--set", "full(2)")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: no irreducibility witness up to the prime scan "
                          "bound (prime_scan_bound = 10000) for X^4 + 1")
    assert "assert_irreducible" in err


@pytest.mark.parametrize("caps", [(), ("--residue-cap", "1000")])
def test_roots_and_maxval_at_a_31_bit_prime(capsys, caps):
    prime_set = "full(2147483647)"
    code, payload, _ = run_json(capsys, *caps, "roots", "--poly", "X^2 - 17",
                                "--set", prime_set)
    assert code == 0 and payload["count"] == 2
    code, payload, _ = run_json(capsys, *caps, "maxval", "--poly", "X^2 + 1",
                                "--set", prime_set)
    assert code == 0 and payload["value"] == 0


def test_units_and_self_is_capped_before_its_balls_are_built(capsys):
    # p - 1 unit balls: 2^31 - 2 of them is over the default residue cap
    code, out, err = run(capsys, "member", "--set", "units+p(2147483647)",
                         "--x", "5")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "residue cap" in err
    code, out, _ = run(capsys, "member", "--set", "units+p(7)", "--x", "5")
    assert code == 0 and out.strip() == "yes"
    code, out, err = run(capsys, "--residue-cap", "5", "member", "--set",
                         "units+p(7)", "--x", "5")
    assert code == 1 and out == "" and err.count("\n") == 1


def test_config_file(tmp_path, capsys):
    path = tmp_path / "limits.cfg"
    path.write_text("residue_cap = 2\n# comment\n")
    code, _, err = run(capsys, "--config", str(path), "adele-diff",
                       "--intset", r"Z \ (1 mod 8)")
    assert code == 1 and "16 residue classes at prime 2" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    code, _, err = run(capsys, "--config", str(bad), "selftest")
    assert code == 1 and "error" in err
    missing = tmp_path / "absent.cfg"
    code, _, err = run(capsys, "--config", str(missing), "selftest")
    assert code == 1 and "error" in err
    bad.write_text("residue_cap 5\n")
    got = run(capsys, "--config", str(bad), "simple", "--ring", RING_INT)
    assert got == (1, "", f"error: {bad}:1: expected key=value, got "
                          "'residue_cap 5\\n'\n")


@pytest.mark.parametrize("argv", [
    ("--residue-cap", "-5"),
    ("--degree-cap", "0"),
    ("--prime-scan-bound", "0"),
])
def test_caps_below_one_are_refused_by_name(capsys, argv):
    code, out, err = run(capsys, *argv, "member", "--set", "full(2)",
                         "--x", "1")
    field = argv[0][2:].replace("-", "_")
    assert code == 1 and out == ""
    assert err == f"error: {field} must be at least 1, not {argv[1]}\n"


def test_config_file_caps_are_positive_integers(tmp_path, capsys):
    path = tmp_path / "limits.cfg"
    path.write_text("search_degree_cap = 0\n")
    code, _, err = run(capsys, "--config", str(path), "selftest")
    assert code == 1
    assert err == "error: search_degree_cap must be at least 1, not 0\n"
    path.write_text("# limits\nresidue_cap = lots\n")
    code, _, err = run(capsys, "--config", str(path), "selftest")
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: {path}:2: residue_cap needs an integer")


def test_config_refuses_caps_below_one():
    for field in Config.__dataclass_fields__:
        with pytest.raises(ValueError, match=f"^{field} must be at least 1"):
            Config(**{field: 0})
    assert Config(residue_cap=1).residue_cap == 1


def test_config_file_rejects_removed_keys(tmp_path, capsys):
    path = tmp_path / "old.cfg"
    path.write_text("primality_bits = 128\n")
    code, _, err = run(capsys, "--config", str(path), "selftest")
    assert code == 1 and "unknown config key 'primality_bits'" in err


def test_huge_prime_modulus_is_a_named_error(capsys):
    code, out, err = run(capsys, "adele-diff", "--intset",
                         r"Z \ (1 mod 1000000007)")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "residue classes at prime" in err


def test_closure_questions_at_a_prime_outside_the_modulus_enumerate_nothing(
        capsys):
    # an integer set's closure at a prime not dividing its modulus is Z_p,
    # and product-closure membership is one covering check per coordinate
    code, out, _ = run(capsys, "adele-prod", "--intset",
                       r"Z \ (1 mod 1000000007)", "--candidate",
                       "1000000007: 1")
    assert code == 0 and out.strip() == "no"
    ring = ('{"exceptional": {"1048583": "pts(1048583; 0)"}, '
            '"default": "intset(Z \\\\ (1 mod 4))"}')
    code, out, _ = run(capsys, "ring-contains", "--r1", ring,
                       "--r2", '{"default": "full"}')
    assert code == 0 and out.strip() == "yes"


def test_over_long_integer_field_is_one_error_line(capsys):
    ones = "1" * 5000
    for argv in (("closure", "--set", f"ball(3; 1, {ones})"),
                 ("adele-hat", "--intset", rf"Z \ (1 mod {ones})",
                  "--candidate", "2: 1"),
                 ("adele-prod", "--intset", "Z", "--candidate", f"2: {ones}"),
                 ("ring-contains", "--r2", "{}", "--r1",
                  '{"exceptional": [{"p": %s, "set": "full(2)"}]}' % ones)):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 4300 digits" in err and ones[:100] not in err


@pytest.mark.parametrize("argv", [
    ("ring-contains", "--r2", "{}", "--r1", "5"),
    ("ring-contains", "--r2", "{}", "--r1", '{"exceptional": 5}'),
    ("ring-contains", "--r2", "{}", "--r1", '{"exceptional": [5]}'),
    ("ring-contains", "--r2", "{}", "--r1", '{"exceptional": [{"p": 2}]}'),
    ("ring-contains", "--r2", "{}", "--r1", '{"exceptional": {"2": 5}}'),
    ("ring-contains", "--r2", "{}", "--r1", '{"default": 5}'),
    ("ring-contains", "--r2", "{}", "--r1",
     '{"exceptional": [{"p": [2], "set": "full(2)"}]}'),
    ("rep-eq", "--ring", "{}", "--rep", '{"nonunitary": [5]}'),
    ("rep-eq", "--ring", "{}", "--rep", '{"nonunitary": "X+1"}'),
    ("rep-eq", "--ring", "{}", "--rep", '{"unitary": [["2", "full(2)"]]}'),
    ("ring-of", "--rep", '{"unitary": {"2": "pts(2; 1)"}, "default": "empty",'
                         ' "all_min": "no"}'),
])
def test_malformed_ring_json_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_all_min_false_still_escapes(capsys):
    code, out, _ = run(capsys, "ring-of", "--rep",
                       '{"unitary": {"2": "pts(2; 1)"}, "default": "empty",'
                       ' "all_min": false}')
    assert code == 0 and out.splitlines()[-1] == "escape: 1/(2*X - 1)"


def test_malformed_ring_file_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"exceptional": \n')
    code, out, err = run(capsys, "ring-contains", "--r1", f"@{path}",
                         "--r2", "{}")
    assert code == 1 and out == ""
    assert err == "error: bad JSON: Expecting value: line 2 column 1 (char 17)\n"


@pytest.mark.parametrize("argv", [
    ("localize", "--ring", "{}", "--p"),
    ("min-ext", "--ring", "{}", "--p"),
    ("unitary-contains", "--rep", "{}", "--alpha", "1", "--p"),
    ("superfluous", "--rep", "{}", "--p"),
    ("localize", "--ring", "{}", "--p", "2", "--residue-cap"),
    ("localize", "--ring", "{}", "--p", "2", "--degree-cap"),
    ("localize", "--ring", "{}", "--p", "2", "--prime-scan-bound"),
    ("--residue-cap",),
])
def test_over_long_integer_flag_is_named_not_echoed(monkeypatch, capsys,
                                                    argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "1" * 5000])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.split("\nerror: ")
    assert usage.startswith("usage: ivp") and "1" * 100 not in usage
    assert error == (f"argument {argv[-1]}: value has more than 4300 digits,"
                     " the limit on reading integers\n")
    if argv[0] == "localize":
        assert len(captured.err.encode()) < 300


def test_malformed_integer_flag_keeps_the_argparse_message(capsys):
    with pytest.raises(SystemExit):
        main(["localize", "--ring", "{}", "--p", "abc"])
    err = capsys.readouterr().err
    assert err.endswith("\nerror: argument --p: invalid int value: 'abc'\n")


def test_failed_selftest_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(adelic, "adelic_closure_member", lambda *args: True)
    code, out, err = run(capsys, "selftest")
    assert code == 1 and out == ""
    assert err.startswith("error: selftest failed") and "Traceback" not in err


def test_handler_recursion_error_exits_1(monkeypatch, capsys):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(padic, "closure", too_deep)
    code, out, err = run(capsys, "closure", "--set", TWO_POWERS)
    assert code == 1 and out == ""
    assert err == "error: maximum recursion depth exceeded\n"


def test_no_assert_statements_in_the_library():
    # asserts vanish under python -O; internal checks raise a named IvpError
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(ivp.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_unused_imports_in_the_library():
    # __init__.py re-exports by design, and names in __all__ count as used
    for path in Path(ivp.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        assert imported <= used, (path.name, sorted(imported - used))


def test_every_config_parameter_is_read():
    # a function that takes config reads one of its caps or hands it on,
    # and every Config field is decided by a charge(config, "<field>", ...)
    # call, so each cap is checked and worded one way
    def is_config(node):
        return isinstance(node, ast.Name) and node.id == "config"

    unread, charged = [], set()
    for path in Path(ivp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "charge"
                    and is_config(node.args[0])
                    and isinstance(node.args[1], ast.Constant)):
                charged.add(node.args[1].value)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if not any(a.arg == "config" for a in params):
                continue
            if not any((isinstance(n, ast.Attribute) and is_config(n.value))
                       or (isinstance(n, ast.Call) and any(
                           is_config(a) for a in
                           n.args + [k.value for k in n.keywords]))
                       for n in ast.walk(node)):
                unread.append(f"{path.name}:{node.name}")
    assert not unread
    assert set(Config.__dataclass_fields__) <= charged


def test_cli_imports_only_the_standard_library():
    # run without site, so that nothing installed can be picked up
    probe = ("import sys; before = set(sys.modules); import ivp.cli; "
             "print(*sorted(set(sys.modules) - before))")
    src = str(Path(ivp.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert "ivp.cli" in out
    foreign = [name for name in out if name.split(".")[0] != "ivp"
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign


def test_public_api_is_unchanged():
    assert sorted(ivp.__all__) == [
        "AdelicCandidate", "Ball", "Config", "Congruence", "DEFAULT_CONFIG",
        "Decision", "DefaultRule", "EMPTY_RULE", "FULL_RULE", "INFINITY",
        "IntegerSet", "IrreduciblePoly", "IvpError", "MinimalExtensions",
        "PAdicSet", "PreconditionError", "RatPoly", "Representation",
        "ResourceLimitError", "RingSpec", "RootCertificate", "RootKind",
        "RuleKind", "SeqWithLimit", "TriState", "UNITS_AND_SELF_RULE",
        "WitnessRationalFunction", "adelic", "adelic_closure_member",
        "canonicalize", "closure", "closure_in_zp", "closures_differ",
        "config", "crt_solve", "empty_set", "errors", "exact", "full_set",
        "globalize", "has_irredundant_representation", "instantiate",
        "integer_set_rule", "is_closed", "is_dense_in", "is_integer_valued",
        "is_prime", "is_simple_integer_set_ring", "is_subset",
        "isolated_points", "load_config_file", "localize", "max_valuation",
        "max_valuation_witness", "member", "membership",
        "minimal_extensions", "nonunitary_contains", "normalize_rule",
        "overrings", "padic", "point_set", "polys", "product_closure_member",
        "remove_isolated_point", "representation_equals", "ring_contains",
        "ring_equal", "ring_member", "ring_of", "roots_in_set", "rule_subset",
        "separating_polynomial", "sets_equal", "single_power_rule",
        "some_elements", "superfluous_nonunitary", "superfluous_unitary",
        "unitary_contains", "vp", "witness_rational_function",
    ]


# every intra-package import names a module of a strictly lower layer
LAYERS = ({"config", "errors"}, {"exact"}, {"padic"}, {"polys"},
          {"membership", "adelic"}, {"overrings"}, {"dsl"}, {"cli"})
TAIL_RULE_NAMES = ("RuleKind", "DefaultRule", "FULL_RULE",
                   "UNITS_AND_SELF_RULE", "EMPTY_RULE", "single_power_rule",
                   "integer_set_rule", "instantiate")


def test_library_imports_only_from_lower_layers():
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    for path in Path(ivp.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = ([node.module] if node.module
                         else [a.name for a in node.names])
                for name in names:
                    assert rank[name] < rank[path.stem], (
                        path.name, node.lineno, name)
    for name in TAIL_RULE_NAMES:
        assert name in ivp.__all__ and name in overrings.__all__
        assert getattr(ivp, name) is getattr(overrings, name)


def test_each_flag_is_read_once_through_its_declared_reader():
    # handlers get parsed values: only selftest, which has no flags, reads
    # text itself, and every subcommand flag has one reader or one type
    def parses(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "dsl"
                and node.func.attr.startswith("parse_"))

    handlers = [node for node in ast.parse(Path(cli.__file__).read_text()).body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")]
    parsing = {node.name for node in handlers
               if any(parses(n) for n in ast.walk(node))}
    assert parsing == {"_cmd_selftest"}
    common = {"help", "json", "config_path", "residue_cap", "degree_cap",
              "prime_scan_bound"}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {sub.get_default("handler").__name__
            for sub in subparsers.choices.values()} == {
                node.name for node in handlers}
    for name, sub in subparsers.choices.items():
        readers = sub.get_default("readers")
        flags = {a.dest: a for a in sub._actions if a.dest not in common}
        assert set(readers) <= set(flags), name
        for dest, action in flags.items():
            assert (dest in readers) + (action.type is not None) == 1, (
                name, dest)


def test_isolated_output(capsys):
    code, payload, _ = run_json(capsys, "isolated", "--set",
                                "seq(2; 0, 1, 0, +lim)")
    assert code == 0
    assert payload["explicit"] == []
    assert len(payload["tails"]) == 1 and payload["tails"][0]["from"] == 0


def test_isolated_canonicalizes_once(monkeypatch, capsys):
    calls = []
    canonicalize = padic.canonicalize

    def counted(*args):
        calls.append(1)
        return canonicalize(*args)
    monkeypatch.setattr(padic, "canonicalize", counted)
    code, out, _ = run(capsys, "isolated", "--set", "seq(2; 0, 1, 0, +lim)")
    assert code == 0 and out.startswith("explicit: (none)")
    assert len(calls) == 1


def test_simple_refutes_a_ball_free_window_under_any_residue_cap(capsys):
    ring = '{"exceptional": {"2": "seq(2; 0, 1/1000003, 0, +lim)"}, "default": "full"}'
    for caps in ((), ("--residue-cap", "1000")):
        code, out, _ = run(capsys, *caps, "simple", "--ring", ring)
        assert code == 0 and out.startswith("no (the set at 2 holds no ball")


@pytest.mark.parametrize("argv, code, out", [
    (("subset", "--a", "ball(2; 1, 3)", "--b", "ball(2; 1, 1)"), 0, "yes\n"),
    (("subset", "--a", "ball(2; 1, 1)", "--b", "ball(2; 1, 3)"), 0, "no\n"),
    (("dense", "--e", TWO_POWERS, "--f", "pts(2; 0)"), 0, "yes\n"),
    (("dense", "--e", "pts(3; 1, 2)", "--f", "ball(3; 1, 1)"), 0, "no\n"),
    (("roots", "--poly", "3*X - 2", "--set", "full(5)"),
     0, "1 root(s)\n  exact-rational in ball(5, 4, 1) value 2/3\n"),
    (("min-ext", "--ring", '{"exceptional": {"3": "pts(3; 1, 4) | ball(3; 2,'
      ' 1)"}, "default": "empty"}', "--p", "3"),
     0, "count: 2\n  drop 1\n  drop 4\n"),
])
def test_subcommand_outputs(capsys, argv, code, out):
    assert run(capsys, *argv) == (code, out, "")


@pytest.mark.parametrize("argv, code, out, err", [
    # a factor among the primality witnesses decides past their bound
    (("min-ext", "--ring", "{}", "--p", "4" + "0" * 27),
     1, "", f"error: expected a prime, got {4 * 10 ** 27}\n"),
    (("ring-contains", "--r1", '{"default": "intset({1%s})"}' % ("0" * 30),
      "--r2", '{"default": "units+p"}'),
     0, "no (default rule not contained)\n", ""),
])
def test_a_number_past_the_primality_bound_with_a_small_factor(
        capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


def test_residue_cap_bounds_the_finiteness_check(capsys):
    intset = r"Z \ (0 mod 2) \ (1 mod 4) \ (1 mod 3) \ (2 mod 3)"
    argv = ("adele-hat", "--intset", intset, "--candidate", "2: 3")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "yes\n"
    code, out, err = run(capsys, *argv, "--residue-cap", "2")
    assert code == 1 and out == ""
    assert err == ("error: 3 covering-check classes, over the residue cap "
                   "(residue_cap = 2)\n")


@pytest.mark.parametrize("argv, code, first_line", [
    (("superfluous", "--rep", '{"default": "power(2)", "all_min": true}',
      "--poly", "X - 9"), 1, "error: X - 9 is not part of the representation"),
    (("simple", "--ring", '{"default": "full", "exceptional": {"2": "ball(2; 0,'
      ' 1) | pts(2; 1)", "3": "ball(3; 0, 1)"}}'),
     2, "unknown (the window mixes balls with points or sequences, beyond the"
        " supported analysis)"),
    (("simple", "--ring", '{"exceptional": {"2": "seq(2; 1, 1, 0, +lim)"}}'),
     0, "no (the set at 2 holds no ball, so its integers miss a class mod q^j"
        " at some prime q off the window)"),
])
def test_ring_layer_exit_codes(capsys, argv, code, first_line):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert (out or err).splitlines()[0] == first_line


@pytest.mark.parametrize("argv, code, out", [
    # 100140049 = 10007^2, past the trial division that factors q(0)
    (("nonunitary-contains", "--rep", '{"default": "power(2)"}',
      "--poly", "X - 100140049"), 0, "yes (root inside the set at 10007)\n"),
    (("nonunitary-contains", "--rep", '{"default": "intset({0, 100140049})"}',
      "--poly", "X - 100140049"),
     0, "yes (root 100140049 pinned at every prime)\n"),
    # a root base past is_prime's bound is left to factoring, which finds
    # the factor 2 and no root
    (("nonunitary-contains", "--rep", '{"default": "power(1)"}',
      "--poly", "X - 4000000000000000000000006"),
     0, "no (finitely many finite contributions)\n"
        "witness: 8000000000000000000000012/(X - 4000000000000000000000006)\n"),
    (("ring-contains", "--r1", '{"exceptional": {"2097169": "full(2097169)"},'
      ' "default": "units+p"}', "--r2", "{}"), 0, "yes\n"),
    (("rep-eq", "--rep", '{"unitary": {"2097169": "full(2097169)"},'
      ' "default": "units+p"}', "--ring", "{}"),
     0, "no (pinned values not dense: default rule not contained)\n"),
])
def test_roots_in_closed_form_and_unbuilt_units_balls(capsys, argv, code,
                                                      out):
    assert run(capsys, *argv) == (code, out, "")


def test_superfluous_refuses_a_root_found_in_closed_form(capsys):
    got = run(capsys, "superfluous", "--rep",
              '{"default": "power(2)", "all_min": true}',
              "--poly", "X - 100140049")
    assert got == (1, "", "error: X - 100140049 is not part of the "
                          "representation\n")


@pytest.mark.parametrize("argv, named", [
    (("ring-eq", "--r1", '{"exceptional": {"2": "pts(2; 0)", "02": "full(2)"}}',
      "--r2", "{}"), "prime 2"),
    (("ring-eq", "--r1", '{"exceptional": {"2": "pts(2; 0)", "2": "full(2)"}}',
      "--r2", "{}"), "'2'"),
    (("ring-eq", "--r1", '{"exceptional": [{"p": 2, "set": "pts(2; 0)"},'
      ' {"p": 2, "set": "full(2)"}]}', "--r2", "{}"), "prime 2"),
    (("ring-eq", "--r1", '{"default": "empty", "default": "full"}',
      "--r2", "{}"), "'default'"),
    (("rep-eq", "--rep", '{"unitary": {"3": "full(3)", "03": "pts(3; 1)"}}',
      "--ring", "{}"), "prime 3"),
    (("witness", "--poly", "X^2 + 1", "--family", "2: full(2); 2: pts(2; 0)"),
     "prime 2"),
    (("adele-hat", "--intset", "Z", "--candidate", "2: 65, 3: 65, 2: 1"),
     "prime 2"),
])
def test_a_prime_or_key_given_twice_is_one_error_line(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and err.endswith(" given twice\n")


@pytest.mark.parametrize("argv, line", [
    # witness and globalize check that each family set lives at its key
    (("witness", "--poly", "X^2 + 1", "--family", "2: full(3)"),
     "set at key 2 lives at prime 3"),
    (("globalize", "--family", "2: full(3)"), "set at key 2 lives at prime 3"),
    # every resource refusal names the amount, the Config field and its cap;
    # these two cases keep the ids they had under their earlier wording
    pytest.param(
        ("--residue-cap", "2", "roots", "--poly", "X^2 - 17", "--set", "full(2)"),
        "3 root-scan classes, over the residue cap (residue_cap = 2)",
        id="argv2-root scan visited over 2 classes"),
    pytest.param(
        ("--residue-cap", "4", "simple",
         "--ring", '{"exceptional": {"2": "ball(2; 1, 3)"}}'),
        "8 residue classes at prime 2, over the residue cap (residue_cap = 4)",
        id="argv3-residue enumeration at 2"),
    (("--residue-cap", "2", "adele-diff", "--intset", r"Z \ (1 mod 8)"),
     "16 residue classes at prime 2, over the residue cap (residue_cap = 2)"),
    (("--residue-cap", "5", "member", "--set", "units+p(7)", "--x", "5"),
     "6 unit balls for units+p(7), over the residue cap (residue_cap = 5)"),
    # 143 = 11 * 13: trial division would have to reach isqrt(143) = 11
    (("--prime-scan-bound", "7", "adele-diff", "--intset", r"Z \ (1 mod 143)"),
     "11 as the trial division bound for cofactor 143, over the prime scan"
     " bound (prime_scan_bound = 7)"),
])
def test_refusals_are_one_named_error_line(capsys, argv, line):
    assert run(capsys, *argv) == (1, "", f"error: {line}\n")


def test_a_window_set_equal_to_the_units_and_self_tail_drops_out(capsys):
    # units+p(3) is the tail's own set at 3, so both rings have one
    # canonical form
    got = run(capsys, "ring-eq",
              "--r1", '{"exceptional": {"3": "units+p(3)"}, "default": "units+p"}',
              "--r2", '{"default": "units+p"}')
    assert got == (0, "yes (identical canonical form)\n", "")


def test_search_degree_cap_is_reached_through_a_config_file(tmp_path, capsys):
    # the separator has degree 3: a cap of 3 admits it, a cap of 2 does not
    path = tmp_path / "limits.cfg"
    argv = ("--config", str(path), "separate",
            "--set", "seq(2; 0, 1, 0, -lim) | pts(2; 0)", "--alpha", "3")
    path.write_text("search_degree_cap = 3\n")
    assert run(capsys, *argv) == (0, "(X^3 - 7*X^2 + 14*X - 8)/4\n", "")
    path.write_text("search_degree_cap = 2\n")
    assert run(capsys, *argv) == (
        1, "", "error: 3 linear factors in a separator, over the search degree"
               " cap (search_degree_cap = 2)\n")


@pytest.mark.parametrize("argv, line", [
    # integers are decimal and rationals n or n/d, so an exponent is
    # refused as read, before any power of ten is formed
    (("member", "--set", "full(2)", "--x", "1e100000000"),
     "invalid int rational: '1e100000000'"),
    (("member", "--set", "full(2)", "--x", "1e10000000000"),
     "invalid int rational: '1e10000000000'"),
    (("closure", "--set", "pts(2; 1e5000)"), "invalid int point: '1e5000'"),
    (("member", "--set", "ball(2; 1, x)", "--x", "1"),
     "invalid int ball depth: 'x'"),
    (("closure", "--set", "power(2; x)"), "invalid int power exponent: 'x'"),
    (("adele-diff", "--intset", "{a}"), "invalid int element: 'a'"),
    (("globalize", "--family", "x: full(2)"), "invalid int family prime: 'x'"),
    (("localize", "--ring", '{"exceptional": {"x": "full(2)"}}', "--p", "2"),
     "invalid int ring prime: 'x'"),
    (("member", "--set", "full(2)", "--x", "1/0"),
     "rational '1/0' has a zero denominator"),
    # every flag is read, also one the command then ignores
    (("superfluous", "--rep", '{"nonunitary": ["X"]}', "--poly", "X",
      "--alpha", "1.5"), "invalid int rational: '1.5'"),
    # decimal digits are ASCII ones, although int() reads other scripts'
    (("member", "--set", "full(2)", "--x", "\u0661\u0662"),
     "invalid int rational: '\u0661\u0662'"),
    (("closure", "--set", "pts(2; \u0663)"), "invalid int point: '\u0663'"),
])
def test_a_malformed_number_is_one_error_line_naming_its_field(
        capsys, argv, line):
    assert run(capsys, *argv) == (1, "", f"error: {line}\n")


_LONG = "x" * 20000


@pytest.mark.parametrize("argv, line", [
    (("closure", "--set", f"pts(2; 1, {_LONG})"),
     f"invalid int point: '{_LONG[:40]}'..."),
    (("closure", "--set", f"blob{_LONG}"),
     f"bad set component 'blob{_LONG[:36]}'..."),
    (("adele-diff", "--intset", f"Z \\ {_LONG}"),
     f"bad exclusion near '\\\\ {_LONG[:38]}'..."),
], ids=["int", "set-component", "exclusion"])
def test_a_long_malformed_field_is_echoed_cut_short(capsys, argv, line):
    assert run(capsys, *argv) == (1, "", f"error: {line}\n")
