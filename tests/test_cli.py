"""Command-line behavior: outputs, exit codes, file round-trips."""

from __future__ import annotations

import argparse

import pytest

from stabforge.cli import _budget_log2, run
from stabforge.code import dump_code, dual, linear_code, load_code, parse_code, save_code
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


def test_anticommuting_generators_are_named_as_operators(files, capsys):
    # rows Z1, X2, Z2: the reduced basis lists X2 first, so basis indices
    # would name rows the file does not pair; X2 and Z2 anticommute
    bad = files["dir"] / "anti.sym"
    bad.write_text("field GF(2)\nlength 3\nkind symplectic\nrows\n0 0 0 1 0 0\n0 1 0 0 0 0\n0 0 0 0 1 0\n")
    for argv in (["certify", "--in", str(bad)], ["kl", "--in", str(bad), "--delta", "1"]):
        assert run(argv) == 1
        assert capsys.readouterr().err == f"{argv[0]}: generators IXI and IZI have symplectic pairing 1 != 0\n"


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
    capsys.readouterr()
    # lengthening needs k >= 1: no 7-qubit stabilizer state has d = 4
    assert run(["propagate", "--params", "6,0,4,2", "--rule", "lengthen"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "lengthen construction needs k >= 1" in captured.err


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
    # the violation is the user's --params, whichever command reads them
    for argv in (["bounds", "--singleton"], ["bounds", "--hamming", "--pure"], ["propagate", "--rule", "subcode"]):
        assert run(argv + ["--params", "5,1,4,2"]) == 2
        err = capsys.readouterr().err
        assert "--params 5,1,4,2" in err and "[[5,1,4]] violates the Singleton bound" in err, argv
        assert "internal error" not in err, argv
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


@pytest.mark.parametrize(
    "value, printed",
    [(complex(-0.0, 1.0), "0+1j"), (complex(1.0, -0.0), "1+0j"), (complex(-0.0, -0.0), "0+0j"), (-1j, "0-1j")],
)
def test_kl_witness_value_prints_no_signed_zero(files, capsys, monkeypatch, value, printed):
    # the sign of a zero part depends on the oracle's summation order
    from stabforge import cli
    from stabforge.statevec import KLResult, KLWitness

    real = cli.kl_verify

    def signed(G, delta):
        w = real(G, delta).witness
        return KLResult(False, KLWitness(w.op, w.i, w.j, value), 1, 2)

    monkeypatch.setattr(cli, "kl_verify", signed)
    assert run(["kl", "--in", str(files["ex512"]), "--delta", "3"]) == 1
    assert capsys.readouterr().out.endswith(f" value={printed}\n")


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


def test_non_utf8_file_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_bytes(b"field GF(2)\nlength 2\nkind linear\nrows\n1 \xff\n")
    assert run(["info", "--in", str(bad)]) == 2
    assert f"{bad}:5:" in capsys.readouterr().err


def test_byte_order_mark_is_read_as_the_file_without_it(tmp_path, capsys):
    text = b"field GF(2)\nlength 2\nkind linear\nrows\n1 1\n"
    plain, marked = tmp_path / "plain.code", tmp_path / "bom.code"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert load_code(marked) == load_code(plain)
    assert run(["info", "--in", str(plain)]) == 0
    expected = capsys.readouterr()
    assert run(["info", "--in", str(marked)]) == 0
    assert capsys.readouterr() == expected
    # a bad byte after the mark is still named, with its own line
    bad = tmp_path / "bombad.code"
    bad.write_bytes(b"\xef\xbb\xbf" + text.replace(b"1 1", b"1 \xfe1"))
    assert run(["info", "--in", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}:5: byte 0xfe is not UTF-8\n"


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


def test_additive_file_over_a_non_square_field_names_its_kind_line(tmp_path, capsys):
    path = tmp_path / "add3.code"
    path.write_text("field GF(3)\nlength 2\nkind additive\nrows\n1 0\n")
    assert run(["certify", "--in", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:3: additive codes need a square-order field\n"


def test_field_header_without_gf_names_its_line(tmp_path, capsys):
    path = tmp_path / "field4.code"
    path.write_text("field 4\nlength 2\nkind linear\nrows\n1 0\n")
    assert run(["info", "--in", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: expected 'field GF(q)'\n"


def test_kl_rejects_a_linear_file(files, capsys):
    assert run(["kl", "--in", str(files["hamming"]), "--delta", "1"]) == 2
    assert capsys.readouterr().err == f"error: {files['hamming']}: kl requires a symplectic code file\n"


def test_params_need_their_count_of_integers(capsys):
    for params, err in (
        ("5,1,3", "--params expects 4 comma-separated integers (n,k,d,q)"),
        ("5,1,x,2", "--params entries must be integers (n,k,d,q)"),
    ):
        assert run(["propagate", "--params", params, "--rule", "subcode"]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")


def test_ea_kv_reports_the_ebit(tmp_path, capsys):
    # a GF(4) [4, 2] code with a one-dimensional Hermitian hull: c = 4 - 2 - 1
    path = tmp_path / "ea42.code"
    save_code(linear_code(field_make(2, 2), [(1, 0, 2, 2), (0, 1, 2, 1)]), path)
    assert run(["ea", "--in", str(path), "--kv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:7] == ["q=2", "n=4", "k=1", "d=3", "d.status=exact", "ebits=1", "pure=unknown"]


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


def test_distance_below_one_is_usage_error(capsys):
    for argv in (
        ["bounds", "--singleton", "--params", "5,1,-3,2"],
        ["bounds", "--hamming", "--params", "5,1,0,2"],
        ["bounds", "--aqc-singleton", "--params", "5,1,0,2,2"],
        ["bounds", "--aqc-singleton", "--params", "5,1,2,-1,2"],
        ["propagate", "--params", "5,1,-1,2", "--rule", "lengthen"],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[0]}: distance ") and "must be at least 1" in err


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


def test_deterministic_output(files, capsys):
    run(["certify", "--in", str(files["ex512"]), "--kv"])
    first = capsys.readouterr().out
    run(["certify", "--in", str(files["ex512"]), "--kv"])
    assert capsys.readouterr().out == first


def test_run_reuses_one_parser_across_calls(files, capsys, monkeypatch):
    import stabforge.cli as cli

    bad = files["dir"] / "broken.sym"
    bad.write_text("field GF(2)\nlength 2\nkind symplectic\nrows\n1 0 x 0\n")
    certify = ["certify", "--in", str(files["ex512"]), "--kv"]
    sequence = [
        certify,
        ["certify", "--budget", "26"],
        ["certify", "--in", str(files["ex512"]), "--budget", "65"],
        ["certify", "--help"],
        ["certify", "--in", str(bad)],
        certify,
    ]

    def call(argv):
        code = run(argv)
        out, err = capsys.readouterr()
        return code, out, err

    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 2, 0, 2, 0]
    assert "--in" in fresh[1][2] and "--budget" in fresh[2][2]
    assert fresh[3][1].startswith("usage: stabforge certify") and fresh[3][2] == ""
    assert f"{bad}:5:" in fresh[4][2]
    assert fresh[5] == fresh[0]

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert [call(argv) for argv in sequence] == fresh
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
