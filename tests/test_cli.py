import gc
import json

import pytest

import maxsub.cli
from maxsub.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_REFUSED, SpecError, main,
                        parse_spec)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_builtins():
    assert parse_spec("sym:4").resolved.order == 24
    assert parse_spec("alt:5").resolved.order == 60
    assert parse_spec("agl:3,2").resolved.order == 1344
    assert parse_spec("agammal:1,8").resolved.order == 168


def test_parse_perm():
    gs = parse_spec("perm:4:(1,2);(1,2,3,4)")
    assert gs.resolved.order == 24


def test_parse_dp():
    gs = parse_spec("dp:cyc:2+cyc:3")
    assert gs.resolved.order == 6
    assert gs.resolved.degree == 5


def test_parse_lk():
    gs = parse_spec("lk:sym:4,2")
    assert gs.resolved.order == 96
    gs3 = parse_spec("lk:sym:4,3")
    assert gs3.resolved.order == 384


def test_parse_hat():
    gs = parse_spec("hat:agl:1,8;2")
    assert gs.resolved.degree == 128


def test_parse_sub():
    gs = parse_spec("sub:cyc:5+cyc:5")
    assert gs.resolved.order == 5


def test_parse_errors():
    for bad in ["", "nosuch:3", "lk:sym:4", "dp:cyc:2", "perm:x:(1,2)"]:
        with pytest.raises((SpecError, ValueError)):
            parse_spec(bad)


def test_cmd_analyze_s4(capsys):
    code, out, err = run_cli(capsys, "analyze", "sym:4")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["profile"]["lambda"] == 3
    assert payload["profile"]["m_exact"] == {"2": 1, "3": 3, "4": 4}
    assert payload["profile"]["script_M"]["value"] == pytest.approx(1.0)


def test_cmd_analyze_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--seed", "3", "analyze", "alt:5")
    code2, out2, _ = run_cli(capsys, "--seed", "3", "analyze", "alt:5")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_cmd_bounds_markdown(capsys):
    code, out, _ = run_cli(capsys, "bounds", "alt:5",
                           "--indices", "5,6,10", "--markdown")
    assert code == EXIT_OK
    assert "| 5 |" in out


def test_cmd_nu(capsys):
    code, out, _ = run_cli(capsys, "nu", "alt:5")
    assert code == EXIT_OK
    assert json.loads(out)["nu"] == 2


def test_cmd_nu_mc(capsys):
    code, out, _ = run_cli(capsys, "--seed", "5", "nu", "alt:5",
                           "--mode", "mc", "--trials", "4000")
    assert code == EXIT_OK
    assert json.loads(out)["nu"] == 2


def test_cmd_construct_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "construct", "lk:sym:4,2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["order"] == "96"
    gs = parse_spec(payload["as_perm_spec"])
    assert gs.resolved.order == 96


def test_refusal_exit_code(capsys):
    # a hat too large to materialize refuses with exit code 2
    code, out, err = run_cli(capsys, "--materialize-limit", "64",
                             "analyze", "hat:agl:1,8;2")
    assert code == EXIT_REFUSED
    assert "refused" in err


def test_rks_above_lattice_limit_refuses(capsys):
    # the primitive quotient A5 is above the lattice limit, so rks (and
    # every bound built on it) cannot be certified
    code, out, err = run_cli(capsys, "--lattice-limit", "50",
                             "analyze", "alt:5")
    assert code == EXIT_REFUSED
    assert out == ""
    assert "lattice limit 50" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(maxsub.cli, "cmd_analyze", broken)
    code, out, err = run_cli(capsys, "analyze", "sym:4")
    assert code == EXIT_INTERNAL
    assert "internal error: RuntimeError: boom" in err


@pytest.mark.parametrize("argv", [
    ["nu", "alt:5", "--mode", "mc", "--trials", "0"],
    ["nu", "alt:5", "--mode", "mc", "--trials", "-5"],
    ["bounds", "alt:5", "--indices", "1,5"],
    ["bounds", "alt:5", "--indices", "x"],
    ["analyze", "lk:sym:4,0"],
    ["analyze", "hat:alt:5;0"],
])
def test_malformed_input_is_a_spec_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_REFUSED
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("spec error: ") and err.count("\n") == 1


def test_command_leaves_no_cyclic_garbage(capsys):
    gc.disable()
    try:
        assert main(["analyze", "sym:4"]) == EXIT_OK
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hat_census_obeys_lattice_limit(capsys):
    # the census of hat:alt:5;2 counts generating pairs on the lattice of
    # A5, whose order 60 is above the lattice limit
    code, out, err = run_cli(capsys, "--lattice-limit", "50",
                             "construct", "hat:alt:5;2")
    assert code == EXIT_REFUSED
    assert out == ""
    assert "lattice limit 50" in err


def test_hat_census_refuses_before_counting_pairs(capsys, monkeypatch):
    import maxsub.probgen
    calls = []
    monkeypatch.setattr(maxsub.probgen, "generates",
                        lambda G, perms: calls.append(perms))
    code, out, err = run_cli(capsys, "--lattice-limit", "50",
                             "construct", "hat:alt:5;2")
    assert code == EXIT_REFUSED
    assert err == ("refused: subgroup enumeration needs order <= lattice "
                   "limit 50, got 60\n")
    assert calls == []


def test_analyze_sym6_builds_one_element_table(capsys, monkeypatch):
    # C_G(A6) = 1 in S6, so the primitive group of the chief factor A6 is
    # S6 itself: its element table and lattice are those of G
    from maxsub.tables import ElementTable
    built = []
    orig = ElementTable.__init__

    def counted(self, G):
        built.append(G.order)
        orig(self, G)

    monkeypatch.setattr(ElementTable, "__init__", counted)
    code, out, err = run_cli(capsys, "analyze", "sym:6")
    assert code == EXIT_OK
    assert built == [720]
