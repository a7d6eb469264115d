"""Command-line interface: envelopes, exit codes, round-trips."""

import json
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from qlfun import cli, lfun
from qlfun.characters import DirichletCharacter
from qlfun.cli import at_target, main
from qlfun.lfun import H_pq, K_partial, PartialZetaParams, T_partial, l_pq
from qlfun.numerics import QContext


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def json_result(result):
    lines = [line for line in result.output.strip().splitlines() if line]
    assert len(lines) == 1, "exactly one envelope per invocation"
    return json.loads(lines[0])


# ---------------------------------------------------------------------------
# golden invocations: exit-code contract
# ---------------------------------------------------------------------------

GOLDEN = [
    (["qeuler", "number", "-m", "1", "--q", "2"], 0),
    (["qeuler", "number", "-m", "1", "--q", "1"], 2),          # q = 1 guarded
    (["qeuler", "poly", "-n", "1", "-x", "2", "--q", "2"], 0),
    (["qeuler", "gen", "-n", "0", "--chi", "quad:3", "--q", "2"], 0),
    (["qeuler", "volkenborn", "-m", "0", "--level", "1", "--p", "3", "--q", "4"], 0),
    (["lfun", "lq", "-k", "1", "--chi", "trivial", "--q", "2"], 0),
    (["lfun", "lpq", "-s", "-1", "--chi", "teich:1", "--p", "3", "--q", "4"], 0),
    (["lfun", "hpq", "-s", "0", "-a", "1", "-F", "3", "--p", "3", "--q", "4"], 0),
    (["verify", "remark", "--p", "3", "--q", "2"], 0),
    (["verify", "congruences", "--p", "3", "--t", "0", "--s", "1,2"], 0),
]


@pytest.mark.parametrize("args,code", GOLDEN)
def test_golden_exit_codes(runner, args, code):
    result = invoke(runner, args)
    assert result.exit_code == code, result.output


def test_number_value_and_error_message(runner):
    ok = invoke(runner, ["qeuler", "number", "-m", "1", "--q", "2", "--json"])
    env = json_result(ok)
    assert env["result"] == "-1/3"
    assert env["status"] == "ok"

    bad = invoke(runner, ["qeuler", "number", "-m", "1", "--q", "1", "--json"])
    env = json_result(bad)
    assert env["status"] == "error"
    assert "classical limit" in env["result"]["message"]
    assert bad.exit_code == 2


@pytest.mark.parametrize("args,message", [
    # [j]_{-1} = 0 for even j: the message used to be "Fraction(1, 0)"
    (["verify", "remark", "--p", "5", "--q", "-1"],
     "remark_check requires q != -1: [j]_q = 0 for even j"),
    # the twisted numbers' domain errors used to name euler_poly_frac
    (["qeuler", "gen", "-n", "4", "--chi", "quad:13", "--q", "1"],
     "gen_euler_number: q = 1, use classical limit path"),
    (["lfun", "lq", "-k", "2", "--chi", "quad:5", "--q", "-1"],
     "gen_euler_number: pole at 1 + q^1 = 0"),
    # the harness refuses q = 1 by its printed route's check, before any series
    (["verify", "thm5", "--p", "3", "--q", "1", "-n", "1", "-r", "1"],
     "H_pq divides by (1 - q): use classical limit path"),
])
def test_domain_errors_name_the_refusing_function(runner, args, message):
    result = invoke(runner, args[:2] + ["--json"] + args[2:])
    assert result.exit_code == 2
    envelope = json_result(result)
    assert envelope["status"] == "error"
    assert envelope["result"] == {"message": message}


def test_envelope_roundtrips_byte_identically(runner):
    for args in (["qeuler", "number", "-m", "2", "--q", "2", "--json"],
                 ["lfun", "lpq", "-s", "-1", "--chi", "teich:1",
                  "--p", "3", "--q", "4", "--json"],
                 ["verify", "congruences", "--p", "3", "--t", "1",
                  "--s", "1,2,3", "--json"]):
        result = invoke(runner, args)
        line = result.output.strip()
        assert json.dumps(json.loads(line), sort_keys=True,
                          separators=(",", ":")) == line


def test_envelope_fields(runner):
    result = invoke(runner, ["qeuler", "poly", "-n", "1", "-x", "2",
                             "--q", "2", "--json"])
    env = json_result(result)
    assert set(env) == {"command", "params", "result", "status", "elapsed_ms"}
    assert env["command"] == "qeuler poly"
    assert env["result"] == "5/3"
    assert isinstance(env["elapsed_ms"], int)


HUMAN_ENVELOPES = [
    # one leaf per group, its options given out of declared order: the params
    # lines follow the declared order, an option not given reads None
    (["qeuler", "number", "--q", "2", "-m", "1"],
     ["command: qeuler number", "  m: 1", "  q: 2", "status: ok"]),
    (["lfun", "hpq", "--p", "3", "-F", "9", "-a", "2", "-s", "2"],
     ["command: lfun hpq", "  s: 2", "  a: 2", "  F: 9", "  p: 3", "  q: None",
      "  prec: None", "status: ok"]),
    (["verify", "remark", "--q", "2", "--p", "3"],
     ["command: verify remark", "  p: 3", "  q: 2", "status: ok"]),
]


@pytest.mark.parametrize("args,head", HUMAN_ENVELOPES)
def test_human_envelope_lines(runner, args, head):
    human = invoke(runner, args)
    env = json_result(invoke(runner, args + ["--json"]))
    assert human.exit_code == 0
    assert human.output.splitlines() == head + [
        "result: " + json.dumps(env["result"], sort_keys=True)]


def _leaves(command):
    if isinstance(command, click.Group):
        for sub in command.commands.values():
            yield from _leaves(sub)
    else:
        yield command


def test_every_leaf_is_an_envelope_command_with_json_last():
    leaves = list(_leaves(main))
    assert len(leaves) == 13
    for leaf in leaves:
        assert type(leaf) is cli._Command, leaf.name
        assert leaf.params[-1].opts == ["--json"] and leaf.params[-1].is_flag, leaf.name


def test_lpq_pinned_value_in_json(runner):
    result = invoke(runner, ["lfun", "lpq", "-s", "-1", "--chi", "teich:1",
                             "--p", "3", "--q", "4", "--json"])
    env = json_result(result)
    value = env["result"]["value"]
    assert value["p"] == 3 and value["valuation"] == 0
    rebuilt = sum(d * 3**i for i, d in enumerate(value["digits"]))
    # the value is 8/65 mod 3^6 (and beyond)
    assert (rebuilt * 65 - 8) % 3**6 == 0


def test_padic_output_respects_target_precision(runner):
    result = invoke(runner, ["lfun", "lpq", "-s", "-1", "--chi", "teich:1",
                             "--p", "3", "--q", "4", "--prec", "6", "--json"])
    env = json_result(result)
    assert env["result"]["value"]["precision"] == 6


def test_precision_environment_override(runner):
    result = invoke(runner, ["lfun", "lpq", "-s", "-1", "--chi", "teich:1",
                             "--p", "3", "--q", "4", "--json"],
                    env={"QEULER_PREC": "5"})
    env = json_result(result)
    assert env["result"]["value"]["precision"] == 5


def test_default_q_is_one_plus_p(runner):
    explicit = invoke(runner, ["qeuler", "volkenborn", "-m", "1", "--level", "1",
                               "--p", "3", "--q", "4", "--json"])
    defaulted = invoke(runner, ["qeuler", "volkenborn", "-m", "1", "--level", "1",
                                "--p", "3", "--json"])
    assert json_result(explicit)["result"] == json_result(defaulted)["result"]


def test_gen_exact_versus_padic_output(runner):
    exact = invoke(runner, ["qeuler", "gen", "-n", "1", "--chi", "teich:1",
                            "--p", "3", "--q", "4", "--json"])
    assert json_result(exact)["result"] == "6/13"  # +-1-valued at p=3: exact
    padic = invoke(runner, ["qeuler", "gen", "-n", "1", "--chi", "teich:1",
                            "--p", "5", "--q", "6", "--json"])
    value = json_result(padic)["result"]
    assert isinstance(value, dict) and value["p"] == 5


def test_congruence_report_is_deterministic(runner):
    args = ["verify", "congruences", "--p", "5", "--t", "0",
            "--s", "1,2,3,4,5,6", "--json"]
    first = json_result(invoke(runner, args))
    second = json_result(invoke(runner, args))
    assert first["result"] == second["result"]


def test_verify_thm5_single_point(runner):
    result = invoke(runner, ["verify", "thm5", "--p", "3", "-n", "1", "-r", "1",
                             "--prec", "8", "--json"])
    assert result.exit_code == 0
    env = json_result(result)
    report = env["result"]
    assert report["passes"] is True
    assert report["chain_residual_valuation"] == "inf"
    assert report["first_failing_step"] == "assembly"


def test_verify_thm5_grid_with_jobs(runner):
    result = invoke(runner, ["verify", "thm5", "--p", "3", "-n", "1,2", "-r", "1",
                             "--prec", "8", "--json"])
    assert result.exit_code == 0
    reports = json_result(result)["result"]
    assert isinstance(reports, list) and len(reports) == 2
    assert all(rep["passes"] for rep in reports)
    assert [rep["n"] for rep in reports] == [1, 2]


def test_verify_identities_and_limits(runner):
    assert invoke(runner, ["verify", "identities"]).exit_code == 0
    assert invoke(runner, ["verify", "limits", "--m-max", "2",
                           "--k-max", "3"]).exit_code == 0


def test_usage_errors_exit_two(runner):
    result = invoke(runner, ["lfun", "lpq", "-s", "-1", "--chi", "teich:1"])
    assert result.exit_code == 2
    unknown = invoke(runner, ["qeuler", "number", "-m", "1", "--q", "2",
                              "--frobnicate"])
    assert unknown.exit_code == 2


@pytest.mark.parametrize("args,command,message", [
    (["lfun", "lpq", "-s", "1/0", "--chi", "teich:1", "--p", "3"], "lfun lpq",
     "Invalid value for '-s': '1/0' is not a valid integer or fraction A/B."),
    (["lfun", "lpq", "-s", "1", "--chi", "teich:1"], "lfun lpq", "Missing option '--p'."),
    (["qeuler", "number", "-m", "1", "--q", "2", "--frobnicate"], "qeuler number",
     "No such option '--frobnicate'."),
    (["verify", "frobnicate"], "verify", "No such command 'frobnicate'."),
    # click's option parser raises this one without naming the command
    (["lfun", "lpq", "-s", "1", "--p", "3", "--chi"], "lfun lpq",
     "Option '--chi' requires an argument."),
])
def test_parse_errors_get_an_envelope_with_json(runner, args, command, message):
    # click rejects these before the command body runs: with --json the one
    # error envelope goes to stdout, without it the usage text goes to stderr
    result = invoke(runner, args[:2] + ["--json"] + args[2:])
    assert result.exit_code == 2 and result.stderr == ""
    envelope = json.loads(result.stdout)
    assert envelope["command"] == command and envelope["status"] == "error"
    assert envelope["result"] == {"message": message} and envelope["params"] == {}
    plain = invoke(runner, args)
    assert plain.exit_code == 2 and plain.stdout == ""
    assert f"Error: {message}" in plain.stderr


@pytest.mark.parametrize("args,message", [
    (["--json", "verify", "limits"], "No such option '--json'."),
    (["--frobnicate", "verify", "limits", "--json"], "No such option '--frobnicate'."),
])
def test_root_parse_errors_get_an_envelope_with_json(runner, args, message):
    # the root group has no options and parses its own before any command:
    # with --json among the arguments its parse error is the one error
    # envelope, named by the root's empty command path
    result = invoke(runner, args)
    assert result.exit_code == 2 and result.stderr == ""
    envelope = json.loads(result.stdout)
    assert envelope["command"] == "" and envelope["status"] == "error"
    assert envelope["result"] == {"message": message} and envelope["params"] == {}
    plain = invoke(runner, ["--frobnicate", "verify", "limits"])
    assert plain.exit_code == 2 and plain.stdout == ""
    assert "Error: No such option '--frobnicate'." in plain.stderr


@pytest.mark.parametrize("args,env", [
    (["lfun", "lpq", "-s", "1", "--p", "3", "--json"], {"QEULER_PREC": "abc"}),
    (["qeuler", "gen", "-n", "1", "--chi", "trivial", "--json"], None),
])
def test_usage_error_inside_a_command_gets_an_envelope(runner, args, env):
    result = invoke(runner, args, env=env)
    assert result.exit_code == 2
    envelope = json_result(result)
    assert envelope["status"] == "error"
    assert envelope["result"]["message"]


@pytest.mark.parametrize("args", [
    ["qeuler", "gen", "-n", "2", "--chi", "teich:1", "--json"],
    ["lfun", "lq", "-k", "2", "--chi", "teich:1", "--json"],
])
def test_a_teichmuller_character_without_p_is_a_usage_error(runner, args):
    # a character that is not {0,+-1}-valued has a teich:T atom, which the
    # parser refuses without --p
    result = invoke(runner, args)
    assert result.exit_code == 2
    envelope = json_result(result)
    assert envelope["status"] == "error"
    assert envelope["result"]["message"] == "teich:T atoms need a prime; pass --p"


def test_columns_too_short_for_the_guard_give_one_error_envelope(runner, monkeypatch):
    # series columns that end before the guard fires: exit 2 and one
    # envelope naming the series, never a converged value
    monkeypatch.setattr(QContext, "column_length", property(lambda ctx: 6))
    result = invoke(runner, ["lfun", "hpq", "-s", "2", "-a", "2", "-F", "9", "--p", "3",
                             "--json"])
    assert result.exit_code == 2
    envelope = json_result(result)
    assert envelope["status"] == "error"
    assert envelope["result"]["message"] == \
        "binomial power series: guard not satisfied within its 6 column entries"
    partial = envelope["result"]["partial"]
    assert (partial["converged"], partial["last_index"]) == (False, 5)


@pytest.mark.parametrize("modulus", ["-3", "-9"])
def test_lpq_rejects_a_modulus_below_one(runner, modulus):
    # -3 is odd and divisible by 3: without the sign check the unit sum is
    # empty and a zero value would be printed with status ok
    result = invoke(runner, ["lfun", "lpq", "-s", "1", "--p", "3", "-F", modulus, "--json"])
    assert result.exit_code == 2
    envelope = json_result(result)
    assert envelope["status"] == "error"
    assert envelope["result"]["message"] == "l_pq requires an odd positive multiple of p for F"


def test_lpq_default_modulus_is_the_lcm_of_p_and_the_conductor(runner):
    # the help names l_pq's default F = lcm(p, conductor), not p * conductor:
    # the two differ when p divides the conductor, as for every teich:T atom
    result = invoke(runner, ["lfun", "lpq", "--help"])
    assert result.exit_code == 0
    assert ("-F, --modulus INTEGER odd positive multiple of p (default lcm(p, conductor))"
            in " ".join(result.output.split()))
    for p, chi, F in ((3, "teich:1", 3), (3, "quad:3", 3), (3, "quad:5*teich:1", 15),
                      (5, "quad:3", 15)):
        args = ["lfun", "lpq", "-s", "1", "--p", str(p), "--chi", chi, "--json"]
        default = json_result(invoke(runner, args))
        explicit = json_result(invoke(runner, [*args, "-F", str(F)]))
        assert default["status"] == explicit["status"] == "ok", (p, chi)
        assert default["result"] == explicit["result"], (p, chi)


@pytest.mark.parametrize("args,message", [
    (["verify", "thm5", "--p", "3", "-n", ",", "-r", "1"], "-n needs at least one"),
    (["verify", "thm5", "--p", "3", "-n", "1", "-r", " "], "-r needs at least one"),
    (["verify", "congruences", "--p", "3", "--t", "0", "--s", ","], "--s needs at least one"),
    (["verify", "limits", "--p", ","], "--p needs at least one"),
    (["verify", "limits", "--k-max", "0"], "--k-max must be >= 1"),
    (["verify", "limits", "--m-max", "-1"], "--m-max must be >= 0"),
])
def test_empty_verification_grids_are_usage_errors(runner, args, message):
    # a check over no points verifies nothing, so it must not report ok
    result = invoke(runner, args[:2] + ["--json"] + args[2:])
    assert result.exit_code == 2
    envelope = json_result(result)
    assert envelope["status"] == "error"
    assert message in envelope["result"]["message"]


def test_congruence_scan_rejects_repeated_samples(runner):
    # "2,2" used to compare l_pq(2) with itself and report ok, "inf" and
    # mod_p_constant_on_samples true
    args = ["verify", "congruences", "--p", "3", "--t", "0", "--s", "2,2", "--json"]
    result = invoke(runner, args)
    assert result.exit_code == 2
    envelope = json_result(result)
    assert envelope["status"] == "error"
    assert envelope["result"] == {
        "message": "congruence_scan_eq21 needs distinct samples, got [2, 2]"}


@pytest.mark.parametrize("args,p", [
    (["verify", "limits", "--p", "1"], 1),  # used to loop forever stripping 1s
    (["verify", "limits", "--p", "4"], 4),  # used to report ok
    (["verify", "limits", "--p", "3,9"], 9),
    (["verify", "remark", "--p", "4", "--q", "2"], 4),  # used to exit 1
    (["qeuler", "gen", "-n", "1", "--chi", "trivial", "--p", "4", "--q", "5"], 4),
    (["lfun", "lq", "-k", "1", "--chi", "teich:1", "--p", "9"], 9),
    (["lfun", "lpq", "-s", "1", "--chi", "trivial", "--p", "1"], 1),
])
def test_every_p_option_requires_an_odd_prime(runner, args, p):
    result = invoke(runner, args[:2] + ["--json"] + args[2:])
    assert result.exit_code == 2
    envelope = json_result(result)
    assert envelope["status"] == "error"
    assert envelope["result"]["message"] == f"p must be an odd prime >= 3, got {p}"


THM5_GOLDEN = json.loads((Path(__file__).parent / "data" / "thm5_grid_golden.json").read_text())


@pytest.mark.parametrize("p", [3, 5])
def test_verify_thm5_default_grid_matches_golden(runner, p):
    # pinned from point-by-point evaluation: sharing one series cache across
    # the grid must not move a digit
    result = invoke(runner, ["verify", "thm5", "--p", str(p), "-n", "1,2", "-r", "1,2",
                             "--json"])
    assert result.exit_code == 0
    envelope = json_result(result)
    assert envelope["result"] == THM5_GOLDEN[f"p{p}"]
    assert "jobs" not in envelope["params"]


@pytest.mark.parametrize("key,options", [
    ("p7", ["--p", "7", "-n", "1,2"]),
    ("p3_prec16", ["--p", "3", "--prec", "16", "-n", "1,2"]),
    ("p3_prec24", ["--p", "3", "--prec", "24", "-n", "1,2"]),
    ("p3_q7", ["--p", "3", "--q", "7", "-n", "1,2"]),
    ("p3_q-2", ["--p", "3", "--q", "-2", "-n", "1,2"]),
    ("p3_q1/4", ["--p", "3", "--q", "1/4", "-n", "1,2"]),
    ("p5_q11", ["--p", "5", "--q", "11", "-n", "1,2"]),
    ("p5_q-4", ["--p", "5", "--q", "-4", "-n", "1,2"]),
    ("p5_q1/6", ["--p", "5", "--q", "1/6", "-n", "1,2"]),
    ("p3_q10_n123", ["--p", "3", "--q", "10", "-n", "1,2,3"]),
    ("p7_q50_prec16_n123", ["--p", "7", "--q", "50", "--prec", "16", "-n", "1,2,3"]),
    ("p3_q10_prec24_n123_r123", ["--p", "3", "--q", "10", "--prec", "24", "-n", "1,2,3",
                                 "-r", "1,2,3"]),
    ("p11", ["--p", "11", "-n", "1,2"]),
    ("p13_n123", ["--p", "13", "-n", "1,2,3"]),
])
def test_verify_thm5_larger_grids_match_golden(runner, key, options):
    # pinned with exact series terms: the q-Euler residue table must not move
    # a digit at a larger p or a higher precision either.  The q entries (the
    # benchmark's q = 1 + 2p, 1 - p, 1/(1 + p), and q = 10) were pinned with
    # eq24's group 1 as an O(s) convolution and every series as a left fold
    # of PadicNumber additions; the last two n = 1,2,3 entries with the
    # printed and chain k-series as folds of PadicNumber terms; p = 11 and 13,
    # where the unit loops are longest, with the printed l + K as l_pq plus
    # K_full and each Teichmuller power a power of one lift.  An -r in options
    # replaces the default 1,2 (click keeps an option's last value)
    result = invoke(runner, ["verify", "thm5", "-r", "1,2", *options, "--json"])
    assert result.exit_code == 0
    assert json_result(result)["result"] == THM5_GOLDEN[key]


TK_GOLDEN = json.loads((Path(__file__).parent / "data" / "tk_golden.json").read_text())


@pytest.mark.parametrize("key", sorted(TK_GOLDEN))
def test_lfun_tk_matches_golden(runner, key):
    # pinned when T was summed as its own series; T is now derived from the
    # cached H and K, which moved only p5/n1/s3/a2's T tail_valuation_bound
    # (19 -> 18, the merged H and K bound).  A key is p/n/s/which, and a
    # fraction s (the p-adic T and K) keeps its own "/": "p5/n2/s1/2/a2"
    head, which = key.rsplit("/", 1)
    p, n, s = head.split("/", 2)
    options = ["-a", "2"] if which == "a2" else ["--chi", which]
    result = invoke(runner, ["lfun", "tk", "-n", n[1:], "-s", s[1:], *options,
                             "--p", p[1:], "--json"])
    assert result.exit_code == 0
    assert json_result(result)["result"] == TK_GOLDEN[key]


@pytest.mark.parametrize("options,message", [
    (["-a", "1", "--chi", "teich:1"], "cannot be combined"),
    (["--chi", "teich:1", "-F", "9"], "-F needs -a"),
    (["-F", "9"], "-F needs -a"),
])
def test_lfun_tk_rejects_ignored_options(runner, options, message):
    result = invoke(runner, ["lfun", "tk", "-n", "1", "-s", "1", *options,
                             "--p", "3", "--json"])
    assert result.exit_code == 2
    envelope = json_result(result)
    assert envelope["status"] == "error"
    assert message in envelope["result"]["message"]


def test_lfun_tk_refuses_a_character_whose_conductor_does_not_divide_p(runner):
    # conductor 5 at p = 3: the full aggregates over a < p have no period to sum
    result = invoke(runner, ["lfun", "tk", "-n", "1", "-s", "1", "--chi", "quad:5",
                             "--p", "3", "--json"])
    assert result.exit_code == 2
    envelope = json_result(result)
    assert envelope["status"] == "error"
    assert envelope["result"]["message"] == \
        "T_full requires conductor(chi) = 5 to divide F = p = 3"


@pytest.mark.parametrize("n,series", [(1, [0, 1]), (2, [2])])
def test_lfun_tk_sums_each_series_once(runner, monkeypatch, n, series):
    # T and K share one series cache: K is summed once for both, and odd n
    # adds the H series T is derived from
    ran = []
    original = lfun._twisted_series

    def recording(m, *args):
        ran.append(m)
        return original(m, *args)

    monkeypatch.setattr(lfun, "_twisted_series", recording)
    result = invoke(runner, ["lfun", "tk", "-n", str(n), "-s", "1", "-a", "2",
                             "--p", "5", "--json"])
    assert result.exit_code == 0
    assert sorted(ran) == series


@pytest.mark.parametrize("args,value", [
    (["lfun", "lpq", "--p", "5", "-s", "1/2", "--chi", "teich:1", "--prec", "16"],
     lambda ctx, s: l_pq(s, DirichletCharacter.teichmuller_power(1, 5), ctx)),
    (["lfun", "hpq", "-s", "-1/2", "-a", "2", "-F", "9", "--p", "3"],
     lambda ctx, s: H_pq(s, PartialZetaParams(2, 9), ctx)),
    (["lfun", "tk", "-n", "1", "-s", "2/7", "-a", "2", "--p", "5"],
     lambda ctx, s: {"T": T_partial(1, s, PartialZetaParams(2, 5), ctx),
                     "K": K_partial(1, s, PartialZetaParams(2, 5), ctx)}),
])
def test_lfun_s_takes_a_fraction_as_a_padic_integer(runner, args, value):
    # -s A/B with B prime to p is the p-adic integer ctx.embed(A/B): the
    # library's value at target precision, with the fraction in the params
    envelope = json_result(invoke(runner, args + ["--json"]))
    assert envelope["status"] == "ok"
    text = args[args.index("-s") + 1]
    assert envelope["params"]["s"] == text
    p = int(args[args.index("--p") + 1])
    prec = int(args[args.index("--prec") + 1]) if "--prec" in args else 8
    ctx = QContext(p=p, q=Fraction(1 + p), precision=prec)
    expected = value(ctx, ctx.embed(Fraction(text)))
    if isinstance(expected, dict):
        assert envelope["result"] == {k: at_target(v, ctx).to_json_dict() for k, v in expected.items()}
    else:
        assert envelope["result"] == at_target(expected, ctx).to_json_dict()


@pytest.mark.parametrize("args", [
    ["lfun", "lpq", "--p", "3", "-s", "1/3", "--chi", "teich:1"],
    ["lfun", "hpq", "-s", "-2/9", "-a", "2", "-F", "9", "--p", "3"],
    ["lfun", "tk", "-n", "1", "-s", "1/5", "-a", "2", "--p", "5"],
])
def test_lfun_s_refuses_a_denominator_divisible_by_p(runner, args):
    result = invoke(runner, args + ["--json"])
    assert result.exit_code == 2
    envelope = json_result(result)
    text = args[args.index("-s") + 1]
    p = args[args.index("--p") + 1]
    assert envelope["status"] == "error" and envelope["params"]["s"] == text
    assert envelope["result"] == {
        "message": f"-s {text} is not a p-adic integer: {p} divides its denominator"}


def test_lfun_integer_s_stays_an_integer(runner):
    # an integer -s, written as one or as a fraction, is the int it was
    envelopes = [json_result(invoke(runner, ["lfun", "hpq", "-s", s, "-a", "2", "-F", "9",
                                             "--p", "3", "--json"])) for s in ("2", "4/2")]
    for envelope in envelopes:
        envelope.pop("elapsed_ms")
    assert envelopes[0] == envelopes[1] and envelopes[0]["params"]["s"] == 2
    ctx = QContext(p=3, q=Fraction(4))
    assert envelopes[0]["result"] == at_target(H_pq(2, PartialZetaParams(2, 9), ctx),
                                               ctx).to_json_dict()


def test_verify_thm5_has_no_jobs_option(runner):
    result = invoke(runner, ["verify", "thm5", "--p", "3", "-n", "1", "-r", "1",
                             "--jobs", "2", "--json"])
    assert result.exit_code == 2


def test_domain_errors_reported_as_error(runner):
    # even modulus: rejected at parameter construction, exit 2
    result = invoke(runner, ["lfun", "hpq", "-s", "1", "-a", "2", "-F", "6",
                             "--p", "3", "--q", "4", "--json"])
    assert result.exit_code == 2
    env = json_result(result)
    assert env["status"] == "error"
