"""Command-line behavior: outputs, exit codes, file round-trips."""

from __future__ import annotations

import argparse

import pytest

from stabforge.cli import _budget_log2, run, worker_cap
from stabforge.code import dump_code, dual, load_code, parse_code, save_code
from stabforge.gf import field_make

from conftest import EX512_ROWS, HAMMING74_ROWS, HEXACODE_ROWS, even_weight_rows


@pytest.fixture
def files(tmp_path, ex512, hamming74, even762, hexacode):
    from stabforge.code import linear_code, phi_code

    out = {}
    out["ex512"] = tmp_path / "ex512.sym"
    save_code(ex512, out["ex512"])
    out["hamming"] = tmp_path / "hamming74.code"
    save_code(hamming74, out["hamming"])
    out["even7"] = tmp_path / "even7.code"
    save_code(even762, out["even7"])
    out["hexacode"] = tmp_path / "hexacode.code"
    save_code(hexacode, out["hexacode"])
    out["phi512"] = tmp_path / "phi512.code"
    save_code(phi_code(ex512), out["phi512"])
    f4 = field_make(2, 2)
    out["gf4line"] = tmp_path / "gf4line.code"
    save_code(linear_code(f4, [(1, 0)]), out["gf4line"])
    out["dir"] = tmp_path
    return out


def test_certify_ex512(files, capsys):
    assert run(["certify", "--in", str(files["ex512"]), "--budget", "26"]) == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert head == "[[5,1,3]]_2 pure=true d.status=exact"


def test_certify_kv_contains_required_fields(files, capsys):
    assert run(["certify", "--in", str(files["ex512"]), "--kv"]) == 0
    out = capsys.readouterr().out
    for key in ("q=2", "n=5", "k=1", "d=3", "d.status=exact", "pure=true", "provenance=", "witness="):
        assert key in out


def test_certify_additive_file(files, capsys):
    assert run(["certify", "--in", str(files["phi512"])]) == 0
    assert "[[5,1,3]]_2" in capsys.readouterr().out


def test_certify_hexacode(files, capsys):
    assert run(["certify", "--in", str(files["hexacode"])]) == 0
    assert "[[6,0,4]]_2" in capsys.readouterr().out


def test_certify_rejects_plain_binary_linear(files, capsys):
    assert run(["certify", "--in", str(files["hamming"])]) == 2


def test_certify_missing_file_exits_2(files):
    assert run(["certify", "--in", str(files["dir"] / "nope.sym")]) == 2


def test_certify_non_self_orthogonal_exits_1(files, capsys):
    bad = files["dir"] / "bad.sym"
    bad.write_text("field GF(2)\nlength 2\nkind symplectic\nrows\n1 0 0 0\n0 0 1 0\n")
    assert run(["certify", "--in", str(bad)]) == 1
    assert "pairing" in capsys.readouterr().err


def test_dual_roundtrip_through_files(files, tmp_path, capsys):
    first = tmp_path / "dual1.sym"
    second = tmp_path / "dual2.sym"
    assert run(["dual", "--in", str(files["ex512"]), "--ip", "symplectic", "--out", str(first)]) == 0
    assert run(["dual", "--in", str(first), "--ip", "symplectic", "--out", str(second)]) == 0
    original = load_code(files["ex512"])
    twice = load_code(second)
    assert twice.gen.rows == original.gen.rows


def test_dual_to_stdout_reparses(files, capsys):
    assert run(["dual", "--in", str(files["hamming"]), "--ip", "euclidean"]) == 0
    text = capsys.readouterr().out
    D = parse_code(text)
    assert D.k_dim == 3


def test_css_subcommand(files, capsys):
    assert run(["css", "--c1", str(files["hamming"]), "--c2", str(files["hamming"])]) == 0
    assert "[[7,1,3]]_2" in capsys.readouterr().out


def test_css_not_nested_exits_1(files, tmp_path, capsys):
    thin = tmp_path / "thin.code"
    thin.write_text("field GF(2)\nlength 7\nkind linear\nrows\n1 0 0 0 0 0 0\n")
    assert run(["css", "--c1", str(files["even7"]), "--c2", str(thin)]) == 1


def test_enlarge_subcommand(tmp_path, capsys, f2):
    from stabforge.code import linear_code
    from conftest import reed_muller_rows

    c = tmp_path / "rm24.code"
    cp = tmp_path / "rm34.code"
    save_code(linear_code(f2, reed_muller_rows(2, 4)), c)
    save_code(linear_code(f2, reed_muller_rows(3, 4)), cp)
    assert run(["enlarge", "--c", str(c), "--cprime", str(cp)]) == 0
    assert "[[16,10,3]]_2" in capsys.readouterr().out


def test_conx_subcommand(files, capsys):
    assert run(["conx", "--in", str(files["gf4line"])]) == 0
    assert "[[3,1,>=1]]_2" in capsys.readouterr().out


def test_aqc_subcommand(files, capsys):
    assert run(["aqc", "--c1", str(files["even7"]), "--c2", str(files["hamming"])]) == 0
    out = capsys.readouterr().out
    assert "[[7,3,3,2]]_2" in out


def test_aqc_kv_has_both_distance_statuses(files, capsys):
    assert run(["aqc", "--c1", str(files["even7"]), "--c2", str(files["hamming"]), "--kv"]) == 0
    out = capsys.readouterr().out
    for key in ("dz=3", "dx=2", "dz.status=exact", "dx.status=exact", "d.status=exact", "provenance="):
        assert key in out


def test_ea_subcommand(files, capsys):
    assert run(["ea", "--in", str(files["gf4line"])]) == 0
    assert "[[2,1,1;1]]_2" in capsys.readouterr().out


def test_propagate_subcommand(capsys):
    assert run(["propagate", "--params", "5,1,3,2", "--rule", "lengthen"]) == 0
    assert "[[6,1,>=3]]_2" in capsys.readouterr().out
    assert run(["propagate", "--params", "5,1,3,2", "--rule", "puncture"]) == 0
    assert "[[4,1,>=2]]_2" in capsys.readouterr().out
    assert run(["propagate", "--params", "5,1,3,2", "--rule", "subcode"]) == 0
    assert "[[5,0,>=3]]_2" in capsys.readouterr().out


def test_propagate_bad_rule_precondition(capsys):
    assert run(["propagate", "--params", "5,1,1,2", "--rule", "puncture"]) == 2


def test_bounds_hamming_example(capsys):
    assert run(["bounds", "--hamming", "--params", "5,1,3,2", "--pure"]) == 0
    out = capsys.readouterr().out
    for token in ("holds=true", "perfect=true", "lhs=16", "rhs=16"):
        assert token in out


def test_bounds_singleton_exit_codes(capsys):
    assert run(["bounds", "--singleton", "--params", "5,1,3,2"]) == 0
    assert run(["bounds", "--singleton", "--params", "5,3,3,2", "--bound-only"]) == 2
    # exact symmetric parameters violating the bound cannot be constructed
    assert run(["bounds", "--singleton", "--params", "5,3,3,2"]) == 2
    assert "Singleton" in capsys.readouterr().err
    # the asymmetric variant is checkable and reports the violation
    assert run(["bounds", "--aqc-singleton", "--params", "5,3,3,3,2"]) == 1


def test_bounds_gv(capsys):
    assert run(["bounds", "--gv", "--params", "6,2,2,2"]) == 0
    assert "lhs=21" in capsys.readouterr().out
    assert run(["bounds", "--gv", "--params", "6,2,4,2"]) == 1
    capsys.readouterr()
    assert run(["bounds", "--gv", "--params", "5,2,2,2"]) == 2


def test_bounds_aqmds(capsys):
    assert run(["bounds", "--aqmds", "--params", "2,6,4,1"]) == 0
    assert "case=2" in capsys.readouterr().out
    assert run(["bounds", "--aqmds", "--params", "2,7,5,1"]) == 1


def test_kl_pass_and_fail(files, capsys):
    assert run(["kl", "--in", str(files["ex512"]), "--delta", "2"]) == 0
    assert "kl=pass" in capsys.readouterr().out
    assert run(["kl", "--in", str(files["ex512"]), "--delta", "3"]) == 1
    out = capsys.readouterr().out
    assert "kl=fail" in out and "witness=" in out


def test_info_subcommand(files, capsys):
    assert run(["info", "--in", str(files["ex512"])]) == 0
    out = capsys.readouterr().out
    for token in ("field=GF(2)", "kind=symplectic", "length=5", "dim=4", "digest="):
        assert token in out


def test_bad_usage_exits_2(capsys):
    assert run(["bogus"]) == 2
    assert run([]) == 2
    assert run(["bounds", "--params", "5,1,3,2"]) == 2  # no bound selected


def test_budget_log2_range():
    assert _budget_log2("0") == 0 and _budget_log2("64") == 64
    # 1 << 100000000000 would need about 12 GB; the type rejects it first
    for text in ("-1", "65", "100000000000", "x", "2.5"):
        with pytest.raises(argparse.ArgumentTypeError, match=r"expected an integer in \[0, 64\]"):
            _budget_log2(text)


def test_budget_above_64_exits_2(files, capsys):
    assert run(["certify", "--in", str(files["ex512"]), "--budget", "65"]) == 2
    assert "--budget" in capsys.readouterr().err


def test_malformed_file_diagnostic_names_line(files, capsys):
    bad = files["dir"] / "broken.code"
    bad.write_text("field GF(2)\nlength 3\nkind linear\nrows\n1 x 0\n")
    assert run(["info", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "broken.code" in err and ":5:" in err


def _write_code(path, head, rows):
    path.write_text("\n".join(["field GF(2)", head, "kind symplectic", "rows"] + rows) + "\n")
    return str(path)


def test_code_file_length_not_positive_names_header_line(tmp_path, capsys):
    for length in ("-1", "0"):
        path = _write_code(tmp_path / "neg.sym", f"length {length}", [])
        assert run(["certify", "--in", path]) == 2
        assert f"{path}:2:" in capsys.readouterr().err


def test_code_file_row_length_names_row_line(tmp_path, capsys):
    path = _write_code(tmp_path / "ragged.sym", "length 2", ["1 0 0 0", "0 1 0 0 1"])
    assert run(["certify", "--in", path]) == 2
    assert f"{path}:6:" in capsys.readouterr().err


def test_code_file_entry_range_names_row_line(tmp_path, capsys):
    path = _write_code(tmp_path / "range.sym", "length 2", ["1 0 7 0", "0 1 0 0"])
    assert run(["certify", "--in", path]) == 2
    assert f"{path}:5:" in capsys.readouterr().err


def test_negative_budget_is_usage_error(files, capsys):
    assert run(["certify", "--in", str(files["ex512"]), "--budget", "-1"]) == 2
    assert "--budget" in capsys.readouterr().err


def test_non_prime_power_q_is_usage_error(capsys):
    for argv in (
        ["bounds", "--singleton", "--params", "5,1,3,6"],
        ["bounds", "--hamming", "--params", "5,1,3,6", "--pure"],
        ["bounds", "--aqc-singleton", "--params", "5,1,3,2,6"],
        ["propagate", "--params", "5,1,3,6", "--rule", "lengthen"],
    ):
        assert run(argv) == 2
        assert "not a prime power" in capsys.readouterr().err


# --kv certificates, witness included, pinned byte for byte
GOLDEN_KV = {
    "css-ham7": "q=2\nn=7\nk=1\nd=3\nd.status=exact\npure=true\n"
                "provenance=css(C1:bd795c01,C2:bd795c01)\nwitness=IIXIXXI\n",
    "css-rm23": "q=2\nn=8\nk=6\nd=2\nd.status=exact\npure=true\n"
                "provenance=css(C1:77765b04,C2:77765b04)\nwitness=IIIIIIXX\n",
    "css-rm14-34": "q=2\nn=16\nk=4\nd=2\nd.status=exact\npure=true\n"
                   "provenance=css(C1:699e75e6,C2:59584eec)\nwitness=IIIIIIIIIIIIIIXX\n",
    "certify-phi512": "q=2\nn=5\nk=1\nd=3\nd.status=exact\npure=true\n"
                      "provenance=certify_additive(C:79c2556b)\nwitness=IZZIX\n",
}


def test_golden_kv_certificates(files, tmp_path, capsys, f2):
    from stabforge.code import linear_code
    from conftest import reed_muller_rows

    rm = {}
    for r, m in ((2, 3), (1, 4), (3, 4)):
        rm[r, m] = tmp_path / f"rm{r}{m}.code"
        save_code(linear_code(f2, reed_muller_rows(r, m)), rm[r, m])
    argvs = {
        "css-ham7": ["css", "--c1", str(files["hamming"]), "--c2", str(files["hamming"])],
        "css-rm23": ["css", "--c1", str(rm[2, 3]), "--c2", str(rm[2, 3])],
        "css-rm14-34": ["css", "--c1", str(rm[1, 4]), "--c2", str(rm[3, 4])],
        "certify-phi512": ["certify", "--in", str(files["phi512"])],
    }
    for name, argv in argvs.items():
        assert run(argv + ["--kv"]) == 0
        assert capsys.readouterr().out == GOLDEN_KV[name], name


def test_worker_cap_env(monkeypatch):
    monkeypatch.delenv("STABFORGE_THREADS", raising=False)
    assert worker_cap() == 1
    monkeypatch.setenv("STABFORGE_THREADS", "4")
    assert worker_cap() == 4
    monkeypatch.setenv("STABFORGE_THREADS", "junk")
    assert worker_cap() == 1


def test_deterministic_output(files, capsys):
    run(["certify", "--in", str(files["ex512"]), "--kv"])
    first = capsys.readouterr().out
    run(["certify", "--in", str(files["ex512"]), "--kv"])
    assert capsys.readouterr().out == first
