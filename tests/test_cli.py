"""End-to-end command line checks: exit codes, output shapes, determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import glchar.cli as cli
from glchar.cli import main
from glchar.cyclotomic import CycNum, root
from glchar.sheets import (SheetFormatError, SheetValidationError,
                           build_gl1_sheet, build_gl2_sheet, load_sheet,
                           save_sheet, sheet_from_dict, sheet_to_json_text)
from glchar.tori import GroupSpec, torus_from_label

from oracle_conjugacy import weyl_orbit
from oracle_sheet_dict import sheet_to_dict, sheet_to_dict_v2, v1_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- check-q -------------------------------------------------------------

def test_check_q_pass_prints_exact_ratios(capsys):
    code, out, _ = run(capsys, "check-q", "--n", "2", "--q", "11")
    assert code == 0
    assert "threshold 1/8" in out
    assert "torus 1+1 ratio 1/10" in out
    assert "torus 2 ratio 1/12" in out
    assert out.endswith("gate PASS\n")


def test_check_q_fail_exits_2(capsys):
    code, out, _ = run(capsys, "check-q", "--n", "2", "--q", "7")
    assert code == 2
    assert "gate FAIL" in out


@pytest.mark.parametrize("q,expected", [(3, 2), (5, 2), (7, 2), (9, 2),
                                        (11, 0), (13, 0), (16, 0)])
def test_check_q_exit_matrix(capsys, q, expected):
    code, _, _ = run(capsys, "check-q", "--n", "2", "--q", str(q))
    assert code == expected


def test_check_q_gl1_ratio_zero(capsys):
    code, out, _ = run(capsys, "check-q", "--n", "1", "--q", "3")
    assert code == 0
    assert "torus 1 ratio 0" in out


def test_check_q_json(capsys):
    code, out, _ = run(capsys, "check-q", "--n", "2", "--q", "11", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "n": 2, "q": 11, "threshold": "1/8",
        "ratios": [{"torus": "1+1", "ratio": "1/10"},
                   {"torus": "2", "ratio": "1/12"}],
        "ok": True,
    }


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_check_q_gl8_f2_fails_without_printing_2_to_the_k(extra):
    # 2^80639 has 24k digits, over Python's int-to-str limit; the gate
    # compares by bit length and prints the threshold as 1/2^k (the
    # timeout only guards against a hang)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "glchar", "check-q", "--n", "8", "--q", "2",
         *extra], capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == 2, proc.stderr
    if extra:
        data = json.loads(proc.stdout)
        assert data["threshold"] == "1/2^80639"
        assert data["ok"] is False
    else:
        assert "threshold 1/2^80639\n" in proc.stdout
        assert proc.stdout.endswith("gate FAIL\n")


# -- usage errors --------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["check-q", "--n", "2"],
    ["check-q", "--n", "2", "--q", "6"],
    ["recover", "--rho", "onedim:0"],
    ["recover", "--q", "11", "--sheet", "x.json"],
    ["gram", "--q", "11", "--torus", "1+1"],
    ["recover", "--q", "11", "--fast"],
    ["unipotent", "--q", "11", "--fast"],
    ["table"],
    ["table", "--q", "5", "--sheet", "SHEET"],
])
def test_usage_errors_exit_1(capsys, tmp_path, argv):
    # SHEET is a valid q=3 file, so only the usage refuses it
    path = tmp_path / "q3.json"
    save_sheet(build_gl2_sheet(3), str(path))
    argv = [str(path) if a == "SHEET" else a for a in argv]
    assert run(capsys, *argv)[:2] == (1, "")


def test_unknown_label_exits_1(capsys):
    code, _, err = run(capsys, "recover", "--q", "11", "--rho", "bogus:1")
    assert code == 1
    assert "no row labeled" in err


def test_label_without_parameters_exits_1(capsys):
    code, out, err = run(capsys, "recover", "--q", "11", "--rho", "cuspidal:")
    assert (code, out) == (1, "")
    assert err == "error: no row labeled 'cuspidal:'\n"


@pytest.mark.parametrize("argv", [["--rho", ""], ["--rho="]])
def test_empty_rho_exits_1(capsys, argv):
    # an empty label names no row; it must not mean "every row"
    code, out, err = run(capsys, "recover", "--q", "11", *argv)
    assert (code, out) == (1, "")
    assert err == "error: no row labeled ''\n"


RHO_TEXT = st.one_of(
    st.text(max_size=12),
    st.tuples(st.sampled_from(["onedim", "steinberg", "principal",
                               "cuspidal", "bogus", ""]),
              st.lists(st.one_of(st.integers(-300, 300).map(str),
                                 st.text(max_size=3)), max_size=3))
    .map(lambda t: f"{t[0]}:{','.join(t[1])}"))


@settings(max_examples=60, deadline=None)
@given(rho=RHO_TEXT)
def test_any_rho_text_exits_0_or_1(rho):
    # every label either names a row or is a usage error; no exception
    # escapes main
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["recover", "--q", "11", f"--rho={rho}"])
    assert code in (0, 1), err.getvalue()


def test_missing_sheet_file_exits_1(capsys):
    code, _, err = run(capsys, "recover", "--sheet", "/nonexistent.json",
                       "--rho", "onedim:0")
    assert code == 1
    assert "No such file" in err


HUGE_Q = str(2**61 - 1)


@pytest.mark.parametrize("argv", [
    ["check-q", "--n", "2", "--q", HUGE_Q],
    ["check-q", "--n", "100", "--q", "2"],
    ["check-q", "--n", "3", "--q", "101"],
    ["classes", "--n", "2", "--q", HUGE_Q],
    ["classes", "--n", "40", "--q", "3"],
    ["gram", "--q", HUGE_Q, "--torus", "1+1", "--chars", "0,0"],
    ["gram", "--q", "2", "--torus", "100", "--chars", "0"],
    ["table", "--q", HUGE_Q],
    ["recover", "--q", HUGE_Q, "--rho", "onedim:0"],
    ["unipotent", "--n", "1", "--q", HUGE_Q],
])
def test_hostile_n_q_exit_1_within_a_second(capsys, argv):
    # q^n - 1 over the enumeration budget is refused before the trial
    # division of q, the partitions of n and any table (the subprocess
    # timeout only guards against a hang)
    proc = subprocess.run([sys.executable, "-m", "glchar", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "enumeration budget" in err


# -- recover -------------------------------------------------------------

def test_recover_single_row_json(capsys):
    code, out, _ = run(capsys, "recover", "--q", "11",
                       "--rho", "steinberg:0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["label"] == "steinberg:0"
    assert data["unipotent"] is True
    assert data["epsilon"] == {"level": 2, "residues": [0, 0]}
    assert data["expansions"] == [
        {"torus": "1+1", "terms": [{"character": [0, 0], "coefficient": 1}]},
        {"torus": "2", "terms": [{"character": [0], "coefficient": -1}]},
    ]


def test_recover_label_input_canonicalized(capsys):
    code, out, _ = run(capsys, "recover", "--q", "11", "--rho", "principal:5,2")
    assert code == 0
    assert out.startswith("principal:2,5 |")


def test_recover_all_rows_sorted(capsys):
    code, out, _ = run(capsys, "recover", "--q", "11")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 120
    labels = [ln.split(" | ")[0] for ln in lines]
    assert labels[0] == "onedim:0"
    assert labels[10] == "steinberg:0"
    assert labels == sorted(labels, key=lambda s: (
        ["onedim", "steinberg", "principal", "cuspidal"].index(s.split(":")[0]),
        tuple(int(x) for x in s.split(":")[1].split(",")),
    ))


def test_recover_gate_failure_exits_2(capsys):
    code, _, err = run(capsys, "recover", "--q", "7", "--rho", "onedim:0")
    assert code == 2
    assert "density gate" in err


def test_recover_gl1_builtin(capsys):
    code, out, _ = run(capsys, "recover", "--q", "5", "--n", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 5 and data["n"] == 1
    assert len(data["reports"]) == 4
    unis = [r["label"] for r in data["reports"] if r["unipotent"]]
    assert unis == ["onedim:0"]


# -- determinism ---------------------------------------------------------

def test_repeat_runs_byte_identical(capsys):
    _, first, _ = run(capsys, "recover", "--q", "11", "--json")
    _, second, _ = run(capsys, "recover", "--q", "11", "--json")
    assert first == second


# sha256 of stdout as produced before the per-sheet memo and the companion
# shift step; recovery output must never change with its speed
PINNED_STDOUT = [
    (["recover", "--q", "11", "--json"],
     "689c60ce03745aa2dacfc3cced295a89e0f5562ffb0c2e5cf30a73769a5f683e"),
    (["unipotent", "--q", "13", "--json"],
     "6ee7682ef2e7ef1e9b257ab1dac778fcb2e63fa729ffe818297ae8d46102c6f3"),
    # level 1: the reduction table has one row, so zeta^phi is red[phi % N]
    (["recover", "--n", "1", "--q", "2"],
     "0b9d740044e05f52e570f72325f9e7237d02a0b072d55dc6e96e923235a42898"),
    (["recover", "--q", "13", "--json"],
     "088771acde5599337284425afca53114d4356b1a0e6236339dce4332ed6632b5"),
    (["classes", "--n", "2", "--q", "11", "--json"],
     "9eecee3743b6ed2fcea0da191f55d150fb672b1a9f8848d0e2b09bebfc25e6ae"),
    (["classes", "--n", "3", "--q", "3"],
     "5de15c7f4c58e40cd1f4b82db2b0d16625fca2a3ee9a3b41923072530bdb1b77"),
    (["gram", "--q", "11", "--torus", "1+1", "--chars", "0,0;0,1;1,0;1,1",
      "--json"],
     "243a1aebc3c5e37616adc06a41b4532cbcfe50517f9660bf5b678ac5c6aea55e"),
    (["gram", "--q", "11", "--torus", "2", "--chars", "0;1;5"],
     "eccc6619f6d6c13d67c74d7dfc909c36c1cc6b55f149e80aad1508a229674dd0"),
    (["check-q", "--n", "2", "--q", "11", "--json"],
     "1ce97932e4c130d0e558e16ed9020a2fa47219ebd7880ed09166beb5a87b3ef0"),
    # most torus inputs here are served by the twist memo
    (["recover", "--q", "17", "--json"],
     "401d8d76b2584a8d3c23eda44443e0f0afca284e8e1428d091258c122d2e59a6"),
    # even q: F_16 has characteristic 2
    (["recover", "--q", "16", "--json"],
     "97778e53e32124c05c7d10a78e54b49cccd40766c1936e1714ad078c4fb14cec"),
    # format 2 sheet bytes
    (["table", "--q", "13", "--json"],
     "507b28ac80afcf784e5bae9900184fc40664dabfc1d6e88b0ca1de583ff75df9"),
    (["table", "--q", "16", "--json"],
     "99f625148eb2eb6129e7111ec4b36ececa61dce8cdbf3efb16fbbebb0e4702b4"),
    # the frontier in tier-1: 1,680 torus inputs at level 840, about 4 s
    (["recover", "--q", "29", "--json"],
     "c20f0ac8d3b30f012a4f512f67ded23d3662d61ab9215f35c0bb484019e95059"),
    # text mode: GeomClassId residues, Expansion.describe() and the exact
    # Fraction ratios of the gate
    (["recover", "--q", "13"],
     "f093e6b2fe2abf4ebd56afc37cad15298237e2cb2ee43876800511080ab488a1"),
    (["check-q", "--n", "2", "--q", "11"],
     "9e86c346dd33214ed9fb2476120d633424779a7f62733da3852c754fbaf49250"),
    # four characters on each torus at q = 41, the elliptic one at level
    # 1,680 (phi = 384), and GL_1
    (["gram", "--q", "41", "--torus", "1+1", "--chars", "0,0;1,3;5,2;7,7"],
     "ea62b58b385ef2eefa767c3dc35cc4fa6e26f3c1c24e879fc374d8a3bbb75766"),
    (["gram", "--q", "41", "--torus", "2", "--chars", "0;1;5;7", "--json"],
     "403b5b5a856392f38c52814dde013b5ea3fe6b35d1e71563e6304eae9d9fee27"),
    (["gram", "--q", "7", "--torus", "1", "--chars", "0;3"],
     "18b53123170d886c16e509dd695ded3d0e2ccbab528e18cc13a21d04d9e284df"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT)
def test_stdout_sha256_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the density gate in closed form; each of these enumerated every torus
# (17-39 s) before, and the digests were taken then
PINNED_GATE_STDOUT = [
    (["check-q", "--n", "4", "--q", "31", "--json"], 2,
     "609c6a37096b38ad8bf07f24d37fc1020a781f14200bca9213cbb29256004efb"),
    (["check-q", "--n", "3", "--q", "97", "--json"], 2,
     "1c1a92fbc627b4b31a0971ebd42be6cd888ac0ef716e237476160d93b4e270ff"),
    (["check-q", "--n", "2", "--q", "997", "--json"], 0,
     "cefbf645bfe367c13c888c74e00dfe9f99575b3bb06dd31c926431e38bcc545f"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED_GATE_STDOUT)
def test_gate_stdout_sha256_pinned(capsys, argv, code, digest):
    start = time.perf_counter()
    got, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- unipotent -----------------------------------------------------------

def test_unipotent_lists_exactly_two_rows(capsys):
    for q in ("11", "16"):
        code, out, _ = run(capsys, "unipotent", "--q", q)
        assert code == 0
        assert out.splitlines() == ["onedim:0", "steinberg:0"], q


def test_unipotent_json(capsys):
    code, out, _ = run(capsys, "unipotent", "--q", "11", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "q": 11,
                               "unipotent": ["onedim:0", "steinberg:0"]}


# -- classes -------------------------------------------------------------

def test_classes_counts_gl2(capsys):
    code, out, _ = run(capsys, "classes", "--n", "2", "--q", "11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "GL_2(F_11): 110 geometric classes at level 2"
    assert len(lines) == 111


def test_classes_json_sorted(capsys):
    code, out, _ = run(capsys, "classes", "--n", "2", "--q", "11", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["level"] == 2
    assert len(data["classes"]) == 110
    residues = [tuple(c["residues"]) for c in data["classes"]]
    assert residues == sorted(residues)
    assert data["classes"][0] == {"residues": [0, 0], "torus": "1+1",
                                  "character": [0, 0]}


def test_classes_gl1(capsys):
    code, out, _ = run(capsys, "classes", "--n", "1", "--q", "5", "--json")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 4


@pytest.mark.parametrize("n,q", [("11", "2"), ("12", "3")])
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_classes_refuses_unprintable_residues(capsys, n, q, extra):
    # residues mod q^27720 - 1 have over 4300 digits, Python's default
    # int-to-str limit: refused before any class is enumerated or printed
    start = time.perf_counter()
    code, out, err = run(capsys, "classes", "--n", n, "--q", q, *extra)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert "over 4300 digits" in err


@pytest.mark.parametrize("n,q", [(2, 11), (3, 3), (3, 4), (4, 2), (4, 3),
                                 (5, 2)])
def test_classes_size_bound_is_exact_at_its_cap(capsys, monkeypatch, n, q):
    # classes bounds its output by q^n - q^(n-1) classes of n residues, each
    # of at most as many digits as q^L - 1: the count matches the
    # enumeration, and a cap one digit under the bound refuses the input
    code, out, _ = run(capsys, "classes", "--n", str(n), "--q", str(q),
                       "--json")
    assert code == 0
    data = json.loads(out)
    classes = data["classes"]
    assert len(classes) == q**n - q**(n - 1)
    digits = len(str(q ** data["level"] - 1))
    assert max(len(str(r)) for c in classes for r in c["residues"]) <= digits
    bound = len(classes) * n * digits
    monkeypatch.setattr(cli, "MAX_CLASSES_DIGITS", bound)
    assert run(capsys, "classes", "--n", str(n), "--q", str(q))[0] == 0
    monkeypatch.setattr(cli, "MAX_CLASSES_DIGITS", bound - 1)
    code, out, err = run(capsys, "classes", "--n", str(n), "--q", str(q))
    assert (code, out) == (1, "")
    assert f"over {bound - 1} residue digits" in err


@pytest.mark.parametrize("n,q", [("10", "3"), ("2", "317"), ("5", "7")])
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_classes_refuses_oversized_output(capsys, n, q, extra):
    # classes --n 10 --q 3 --json wrote 455,848,161 bytes in 77 s: the
    # closed-form bound on its residue digits refuses it before any work
    start = time.perf_counter()
    code, out, err = run(capsys, "classes", "--n", n, "--q", q, *extra)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert f"over {cli.MAX_CLASSES_DIGITS} residue digits" in err


# -- gram ----------------------------------------------------------------

def test_gram_full_split_basis(capsys):
    code, out, _ = run(capsys, "gram", "--q", "11", "--torus", "1+1",
                       "--chars", "0,0;0,1;1,0;1,1")
    assert code == 0
    assert "4 characters" in out
    assert "nonzero = true" in out


def test_gram_elliptic_json(capsys):
    code, out, _ = run(capsys, "gram", "--q", "11", "--torus", "2",
                       "--chars", "1;11", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["torus"] == "2" and data["size"] == 2
    assert data["nonzero"] is True


def test_gram_gate_failure_exits_2(capsys):
    code, _, _ = run(capsys, "gram", "--q", "7", "--torus", "1+1",
                     "--chars", "0,0;0,1")
    assert code == 2


@pytest.mark.parametrize("torus,chars", [
    ("1+1", "0,0;0,0"),               # duplicate characters
    ("1+1", "0,0;1"),                 # wrong exponent arity
    ("1+1", "0,0;0,1;1,0;1,1;2,0"),   # more than 2|W| characters
    ("banana", "0,0"),                # unparseable torus label
])
def test_gram_bad_inputs_exit_1(capsys, torus, chars):
    code, _, _ = run(capsys, "gram", "--q", "11", "--torus", torus,
                     "--chars", chars)
    assert code == 1


def test_gram_checks_gate_before_characters(capsys):
    # the Coxeter torus of GL_3 pulls in the GL_3 gate, which q = 11 fails
    code, _, _ = run(capsys, "gram", "--q", "11", "--torus", "3",
                     "--chars", "0")
    assert code == 2


# -- table ---------------------------------------------------------------

def test_table_json_matches_library_serialization(capsys):
    from glchar.sheets import sheet_to_json_text
    code, out, _ = run(capsys, "table", "--q", "3", "--json")
    assert code == 0
    assert out == sheet_to_json_text(build_gl2_sheet(3))


def test_table_out_file_roundtrips(capsys, tmp_path):
    path = tmp_path / "sheet.json"
    code, out, _ = run(capsys, "table", "--q", "3", "--out", str(path))
    assert code == 0
    assert "wrote" in out and "8 rows" in out
    reloaded = load_sheet(str(path))
    assert reloaded.labels() == build_gl2_sheet(3).labels()


@pytest.mark.parametrize("q", ["2", "4", "8", "17"])
def test_table_out_file_reemits_byte_identical_at_even_q(capsys, tmp_path, q):
    # at q = 2 the split torus has no regular elements: its index rows
    # are empty; q = 17 is the sheet-roundtrip benchmark's sheet
    path = tmp_path / "sheet.json"
    assert run(capsys, "table", "--q", q, "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "table", "--sheet", str(path), "--json")
    assert code == 0
    assert out.encode() == path.read_bytes()


def test_recover_q8_builds_the_sheet_and_fails_the_gate(capsys):
    code, out, err = run(capsys, "recover", "--q", "8")
    assert (code, out) == (2, "")
    assert "density gate fails for GL_2(F_8)" in err


def test_q16_sheet_file_recovers_like_the_builtin_sheet(capsys, tmp_path):
    path = tmp_path / "sheet16.json"
    assert run(capsys, "table", "--q", "16", "--out", str(path))[0] == 0
    rho = ["--rho", "cuspidal:1"]
    from_file = run(capsys, "recover", "--sheet", str(path), *rho)
    builtin = run(capsys, "recover", "--q", "16", *rho)
    assert from_file == builtin
    assert builtin[0] == 0 and builtin[1].startswith("cuspidal:1 | ")


@pytest.mark.parametrize("q", [3, 11, 16])
def test_version_1_file_reads_like_format_2(capsys, tmp_path, q):
    # files written before format 2 have no "format" key and one
    # {"element", "value"} entry per regular element
    sheet = build_gl2_sheet(q)
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    v1.write_text(v1_text(sheet))
    save_sheet(sheet, str(v2))
    assert v1.read_text().startswith('{\n "group": "GL",\n "n": 2,')
    if q == 11:  # the bytes `table --q 11 --out` wrote before format 2
        assert hashlib.sha256(v1.read_bytes()).hexdigest() == (
            "aa2948fed6100452b013a076325f835924db99c9076b1fb50ddb89d620573562")
    assert load_sheet(str(v1)) == load_sheet(str(v2)) == sheet
    from_v1 = run(capsys, "recover", "--sheet", str(v1), "--json")
    assert from_v1 == run(capsys, "recover", "--sheet", str(v2), "--json")
    assert from_v1 == run(capsys, "recover", "--q", str(q), "--json")
    assert from_v1[0] == (2 if q == 3 else 0)  # q = 3 fails the gate
    assert (run(capsys, "table", "--sheet", str(v1), "--json")
            == run(capsys, "table", "--q", str(q), "--json"))


def test_q32_sheet_file_recovers_like_the_builtin_sheet(capsys, tmp_path):
    # 1,023 rows at level 1023: the format 2 file is small enough to write
    # and reload in a test
    path = tmp_path / "sheet32.json"
    assert run(capsys, "table", "--q", "32", "--out", str(path))[0] == 0
    rho = ["--rho", "cuspidal:1"]
    from_file = run(capsys, "recover", "--sheet", str(path), *rho)
    builtin = run(capsys, "recover", "--q", "32", *rho)
    assert from_file == builtin
    assert builtin[0] == 0 and builtin[1].startswith("cuspidal:1 | ")


def test_table_text_summary(capsys):
    code, out, _ = run(capsys, "table", "--q", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "GL_2(F_3) sheet: zeta level 8, 8 rows, tori 1+1, 2"
    assert "steinberg:0 dim 3" in lines
    assert "cuspidal:1 dim 2" in lines


# -- invalid and inconsistent sheets --------------------------------------

def test_invalid_sheet_file_exits_3(capsys, tmp_path):
    data = sheet_to_dict(build_gl2_sheet(11))
    data["irreducibles"][0]["dim"] = -5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "recover", "--sheet", str(path),
                       "--rho", "onedim:0")
    assert code == 3
    assert "sheet rejected" in err


@pytest.mark.parametrize("argv", [["table"], ["recover"]])
def test_row_label_without_parameters_exits_3(capsys, tmp_path, argv):
    data = sheet_to_dict(build_gl2_sheet(3))
    data["irreducibles"][-1]["label"] = "cuspidal:"
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, "--sheet", str(path))
    assert (code, out) == (3, "")
    assert "label 'cuspidal:': cuspidal takes one parameter" in err


@pytest.mark.parametrize("argv", [["table"], ["recover"]])
def test_row_dim_not_its_labels_exits_3(capsys, tmp_path, argv):
    # the dims of steinberg:0 and principal:0,1 swapped: the sum of dim^2
    # is still 48
    data = sheet_to_dict_v2(build_gl2_sheet(3))
    rows = {r["label"]: r for r in data["irreducibles"]}
    a, b = rows["steinberg:0"], rows["principal:0,1"]
    a["dim"], b["dim"] = b["dim"], a["dim"]
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, "--sheet", str(path))
    assert (code, out) == (3, "")
    assert err == ("error: sheet rejected: row steinberg:0: dim 4 != 3, its "
                   "label's; row principal:0,1: dim 3 != 4, its label's\n")


@pytest.mark.parametrize("argv", [["table"], ["recover"], ["unipotent"]])
def test_value_with_denominator_exits_3(capsys, tmp_path, argv):
    # values lie in Z[zeta_N]: the class function 1/2 (every value of
    # onedim:0 written as [1, 2, 0]) is refused at load, before any
    # recovery runs
    data = sheet_to_dict(build_gl2_sheet(11))
    (row,) = [r for r in data["irreducibles"] if r["label"] == "onedim:0"]
    for entries in row["values"].values():
        for ent in entries:
            assert ent["value"] == [[1, 1, 0]]
            ent["value"] = [[1, 2, 0]]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, "--sheet", str(path))
    assert (code, out) == (3, "")
    assert "sheet rejected" in err and "has denominator 2" in err


@pytest.mark.parametrize("key", ["dim", "zeta_level"])
def test_bool_integer_field_exits_3(tmp_path, key):
    # True equals the dim 1 and the zeta level 1 of GL_1(F_2)
    data = sheet_to_dict(build_gl1_sheet(2))
    (data["irreducibles"][0] if key == "dim" else data)[key] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "glchar", "recover", "--sheet", str(path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stdout
    assert f"key {key!r} has wrong type" in proc.stderr
    assert proc.stdout == ""


def test_huge_zeta_level_exits_3_before_values_are_parsed(tmp_path):
    # parsing values at level 10**6 would allocate ~4e11 ints; the level
    # must be refused first (the timeout only guards against a hang)
    data = sheet_to_dict(build_gl2_sheet(3))
    data["zeta_level"] = 1000000
    path = tmp_path / "huge-level.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "glchar", "recover", "--sheet", str(path),
         "--rho", "onedim:0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "zeta_level 1000000 != lcm of torus exponents 8" in proc.stderr


# a header that validation refuses, of a group whose two tori have about
# 2 * 10**6 points between them: refused before either is enumerated
Q997 = {"zeta_level": 994008, "tori": ["1+1", "2"]}
ONE_ROW = [{"label": "onedim:0", "dim": 1, "values": {}}]


@pytest.mark.parametrize("n,q,header,stderr", [
    (40, 3, {}, None), (100, 2, {}, None), (2, 2**61 - 1, {}, None),
    (True, 11, {}, None),
    (2, 997, Q997, "error: sheet rejected: row count 0 != 994008; sum of "
                   "dim^2 is 0, group order is 987061872096\n"),
    (2, 997, {**Q997, "irreducibles": ONE_ROW}, None),
    (3, 97, {"zeta_level": 89441856, "tori": ["1+1+1", "2+1", "3"]},
     "error: sheet rejected: n = 3: no GL_n sheet with n >= 3 recovers\n"),
], ids=["40-3", "100-2", "2-2305843009213693951", "True-11", "2-997",
        "2-997-one-row", "3-97"])
def test_hostile_sheet_header_exits_3_within_a_second(capsys, tmp_path, n, q,
                                                      header, stderr):
    # no torus of a group with q^n - 1 over the enumeration budget can be
    # validated, and no GL_n sheet with n >= 3 recovered, so the header
    # alone rejects the file, before the trial division of q and the
    # partitions of n; a header within the budget that validation refuses
    # is refused before any torus is enumerated (the subprocess timeout
    # only guards against a hang)
    # in version 1 and in format 2
    for extra in ({}, {"format": 2, "values": []}):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({"group": "GL", "n": n, "q": q,
                                    "zeta_level": 1, "tori": [],
                                    "irreducibles": [], **header, **extra}))
        argv = ["recover", "--sheet", str(path)]
        proc = subprocess.run([sys.executable, "-m", "glchar", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "sheet rejected" in err
        assert stderr is None or err == proc.stderr == stderr


# bytes whose parse raises something other than json.JSONDecodeError
UNPARSABLE = {
    "not UTF-8": b"\xff\xfe",
    "5000-digit int": b'{"format": 2, "values": [[[1' + b"0" * 4999
                      + b', 1, 0]]]}',
    "nested 200000 deep": b"[" * 200_000 + b"]" * 200_000,
}


@pytest.mark.parametrize("data", UNPARSABLE.values(), ids=UNPARSABLE)
def test_unparsable_sheet_bytes_exit_3_within_a_second(capsys, tmp_path,
                                                       data):
    # a decoding error, Python's int digit limit and the recursion limit
    # are all a sheet the parser refused: exit 3 with no traceback
    path = tmp_path / "unparsable.json"
    path.write_bytes(data)
    argv = ["recover", "--sheet", str(path)]
    proc = subprocess.run([sys.executable, "-m", "glchar", *argv],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: sheet rejected: not valid JSON: ")
    assert "Traceback" not in proc.stderr
    start = time.perf_counter()
    assert run(capsys, *argv) == (3, "", proc.stderr)
    assert time.perf_counter() - start < 1.0


def _put(*path, value):
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return mutate


# GL_2(F_3) in format 2: 6 distinct values; 8 rows and 2 + 6 regular
# elements, so 64 value slots
ROW = ("irreducibles", 0, "values", "2")
BAD_INDEX = "an index is not an int in range(6)"
HOSTILE_V2 = {
    "index out of range": (_put(*ROW, 0, value=6), BAD_INDEX),
    "negative index": (_put(*ROW, 0, value=-1), BAD_INDEX),
    "bool index": (_put(*ROW, 0, value=True), BAD_INDEX),
    "float index": (_put(*ROW, 0, value=0.0), BAD_INDEX),
    "bool index last": (_put(*ROW, -1, value=True), BAD_INDEX),
    "huge index": (_put(*ROW, 0, value=10**30), BAD_INDEX),
    "empty index row": (_put(*ROW, value=[]),
                        "0 indices for 6 regular elements"),
    "short index row": (_put(*ROW, value=[0] * 5),
                        "5 indices for 6 regular elements"),
    "long index row": (_put(*ROW, value=[0] * 7),
                       "7 indices for 6 regular elements"),
    # refused on its length: none of its entries is a triples list
    "values longer than slots": (_put("values", value=[0] * 65),
                                 "65 values for 64 slots"),
    "bad triple in values": (_put("values", 1, value=[[1.0, 1, 0]]),
                             "values: bad value triples"),
    "format true": (_put("format", value=True), "key 'format' has wrong type"),
    "format 3": (_put("format", value=3),
                 "format must be 2, or absent for version 1"),
    "format string": (_put("format", value="2"),
                      "key 'format' has wrong type"),
    "no values": (lambda data: data.pop("values"), "missing key 'values'"),
}


@pytest.mark.parametrize("case", list(HOSTILE_V2))
def test_hostile_format_2_sheet_exits_3(capsys, tmp_path, case):
    data = sheet_to_dict_v2(build_gl2_sheet(3))
    assert len(data["values"]) == 6
    mutate, message = HOSTILE_V2[case]
    mutate(data)
    with pytest.raises(SheetFormatError) as exc:
        sheet_from_dict(data)
    assert message in str(exc.value)
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "recover", "--sheet", str(path))
    assert (code, out) == (3, "")
    assert message in err


def test_values_table_past_two_byte_indices_exits_3(capsys, tmp_path):
    # more than 65,536 distinct values, so the index arrays need four bytes;
    # one slot points past 65,535 and breaks its class
    data = json.loads(sheet_to_json_text(build_gl2_sheet(17)))
    data["values"] += [[[k, 1, 0]] for k in range(10**6, 10**6 + 65_536)]
    data["irreducibles"][0]["values"]["1+1"][1] = len(data["values"]) - 1
    message = ("row onedim:0, torus 1+1: not constant on the class of "
               "(0, 2) (differs at (2, 0))")
    with pytest.raises(SheetValidationError) as exc:
        sheet_from_dict(data)
    assert str(exc.value) == message
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    del data, exc
    code, out, err = run(capsys, "recover", "--sheet", str(path))
    assert (code, out, err) == (3, "", f"error: sheet rejected: {message}\n")


def test_unrecoverable_class_function_exits_4(capsys, tmp_path):
    # a 0/1 indicator on one Weyl orbit is a perfectly valid class function
    # but is not an integer combination of at most |W| characters
    sheet = build_gl2_sheet(11)
    ell = torus_from_label(GroupSpec(2, 11), "2")
    orbit = set(weyl_orbit(ell, (1,)))
    row = sheet.row("cuspidal:1")
    lvl = sheet.zeta_level
    vals = dict(row.values)
    vals[ell.blocks] = {e: (root(lvl, 0) if e in orbit else CycNum.zero(lvl))
                        for e in row.values[ell.blocks]}
    row.values = vals
    path = tmp_path / "indicator.json"
    save_sheet(sheet, str(path))
    code, _, err = run(capsys, "recover", "--sheet", str(path),
                       "--rho", "cuspidal:1")
    assert code == 4
    assert "recovery inconsistency" in err


@pytest.mark.parametrize("where", [0, -1])
def test_overlong_value_list_exits_3_before_entries_are_parsed(
        capsys, tmp_path, where):
    # a torus list longer than the torus has points is refused on its
    # length; its entries (not even dicts here) are never looked at
    data = sheet_to_dict(build_gl2_sheet(11))
    data["irreducibles"][where]["values"]["1+1"] = [0] * 200_000
    path = tmp_path / "overlong.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, _, err = run(capsys, "recover", "--sheet", str(path),
                       "--rho", "onedim:0")
    assert time.perf_counter() - start < 5.0
    assert code == 3
    assert "200000 entries for 100 points" in err


# -- interpreter entry point ----------------------------------------------

def test_python_dash_m_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "glchar", "check-q", "--n", "2", "--q", "11"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gate PASS" in proc.stdout
