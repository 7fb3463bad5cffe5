import hashlib
import itertools
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import genbound
from genbound.bounds import MAX_DIGITS, certificate_to_doc, certify_embeddings
from genbound.cli import main


@pytest.fixture
def files(tmp_path):
    docs = {
        "a5.pres": {
            "type": "presentation",
            "generators": ["a", "b"],
            "relators": ["a^2", "b^3", "(a*b)^5"],
            "name": "A5",
        },
        "c1.pres": {"type": "presentation", "generators": ["g"], "relators": ["g^1"], "name": "C1"},
        "c2.pres": {"type": "presentation", "generators": ["a"], "relators": ["a^2"], "name": "C2"},
        "c3.pres": {"type": "presentation", "generators": ["b"], "relators": ["b^3"], "name": "C3"},
        "a5.perm": {"type": "perm", "degree": 5, "generators": [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]},
        "s4.perm": {"type": "perm", "degree": 4, "generators": [[1, 2, 3, 0], [1, 0, 2, 3]]},
        "s3.perm": {"type": "perm", "degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]},
        "klein.perm": {"type": "perm", "degree": 4, "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]},
        "c3.perm": {"type": "perm", "degree": 3, "generators": [[1, 2, 0]]},
        "c13.perm": {"type": "perm", "degree": 13, "generators": [[*range(1, 13), 0]]},
    }
    out = {}
    for name, doc in docs.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(doc))
        out[name] = str(path)
    out["dir"] = tmp_path
    return out


def run(args, capsys):
    status = main(args)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_bound_three_a5(files, capsys):
    status, out, _ = run(
        ["bound", "--factors", files["a5.pres"], files["a5.pres"], files["a5.pres"],
         "--target", files["a5.perm"], "--json", "--reproducible"],
        capsys,
    )
    assert status == 0
    doc = json.loads(out)["certificate"]
    assert doc["conclusion"] == 4
    assert doc["comparison"] == {"lhs": "1771561", "rhs": "216000", "relation": ">"}
    assert "generated_at" not in json.loads(out)


def test_homcount_trivial_factor(files, capsys):
    status, out, _ = run(
        ["homcount", "--factors", files["c1.pres"], "--target", files["s4.perm"],
         "--json", "--reproducible"],
        capsys,
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["per_factor"][0]["count"] == "1"
    assert doc["per_factor"][0]["h"] == 0.0


def test_construct_solsol(files, capsys):
    status, out, _ = run(
        ["construct-solsol", "--primes", "2,3", "--m", "1", "--json", "--reproducible"],
        capsys,
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["dirichlet_prime"] == "7"
    assert doc["target_order"] == "42"
    assert doc["certificate"]["conclusion"] == 2
    assert doc["metabelian"] is True


def test_verify_certificate_round_trip(files, capsys, tmp_path):
    report = tmp_path / "cert.json"
    status, _, _ = run(
        ["construct-solsol", "--primes", "2,3", "--m", "1", "--json",
         "--reproducible", "--output", str(report)],
        capsys,
    )
    assert status == 0
    status, out, _ = run(["verify", "--certificate", str(report), "--json", "--reproducible"], capsys)
    assert status == 0
    assert json.loads(out)["valid"] is True


def test_verify_detects_tampering(files, capsys, tmp_path):
    report = tmp_path / "cert.json"
    run(
        ["construct-solsol", "--primes", "2,3", "--m", "1", "--json",
         "--reproducible", "--output", str(report)],
        capsys,
    )
    doc = json.loads(report.read_text())
    doc["certificate"]["conclusion"] = 7
    report.write_text(json.dumps(doc))
    status, out, _ = run(["verify", "--certificate", str(report), "--json", "--reproducible"], capsys)
    assert status == 2
    assert json.loads(out)["valid"] is False


def test_verify_rejects_a_forged_target_order(files, capsys, tmp_path):
    # the order p^(lm) * r of a power-inequality certificate is re-derived
    report = tmp_path / "cert.json"
    run(
        ["construct-solsol", "--primes", "2,3", "--m", "1", "--json",
         "--reproducible", "--output", str(report)],
        capsys,
    )
    doc = json.loads(report.read_text())
    assert doc["certificate"]["target_order"] == "42"
    doc["certificate"]["target_order"] = "7"
    report.write_text(json.dumps(doc))
    status, out, _ = run(["verify", "--certificate", str(report), "--json", "--reproducible"], capsys)
    assert status == 2
    assert json.loads(out)["valid"] is False
    assert "re-derivation mismatch" in json.loads(out)["reason"]


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"schema": "genbound-certificate/1", "factors": []}', "lacks the field 'comparison'"),
        ('{"certificate": 5}', "certificate must be an object"),
        ("[1, 2]", "top level must be an object"),
        (None, "No such file"),
    ],
    ids=["missing-field", "wrong-type", "not-an-object", "missing-file"],
)
def test_verify_malformed_certificate_is_one_error_line(capsys, tmp_path, content, message):
    path = tmp_path / "cert.json"
    if content is not None:
        path.write_text(content)
    status, out, err = run(["verify", "--certificate", str(path)], capsys)
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# (path of the field, its new value, exit status, message) for each
# rejection of a certificate document: malformed ones exit 1 with one error
# line, and one whose stored comparison fails exits 2
CERTIFICATE_REJECTIONS = {
    "unknown-contribution-kind": (
        ("per_factor", 0, "kind"), "hearsay", 1, "unknown contribution kind 'hearsay'"
    ),
    "unknown-schema": (
        ("schema",), "genbound-certificate/0", 1,
        "unknown certificate schema 'genbound-certificate/0'",
    ),
    "factors-not-strings": (("factors",), [1, 2], 1, "certificate.factors must hold strings"),
    "comparison-fails": (("comparison", "lhs"), "6", 2, "stored comparison does not hold"),
    "too-many-digits": (
        ("per_factor", 0, "p"), "9" * (MAX_DIGITS + 1), 1,
        f"certificate.per_factor[0].p has more than {MAX_DIGITS} digits",
    ),
    "conclusion-bool": (("conclusion",), True, 1, "certificate.conclusion must be of type int"),
}


@pytest.mark.parametrize(
    "path, value, status, message",
    CERTIFICATE_REJECTIONS.values(),
    ids=CERTIFICATE_REJECTIONS.keys(),
)
def test_verify_rejection_exit_status(capsys, tmp_path, path, value, status, message):
    run(["construct-solsol", "--primes", "2,3", "--m", "1", "--json", "--reproducible",
         "--output", str(tmp_path / "report.json")], capsys)
    doc = json.loads((tmp_path / "report.json").read_text())["certificate"]
    *parents, key = path
    node = doc
    for parent in parents:
        node = node[parent]
    node[key] = value
    (tmp_path / "cert.json").write_text(json.dumps(doc))
    result = run(["verify", "--certificate", str(tmp_path / "cert.json"), "--json"], capsys)
    assert result[0] == status
    if status == 1:
        assert result[1:] == ("", f"error: {message}\n")
    else:
        assert json.loads(result[1])["reason"] == message


def test_verify_rejects_a_bool_conclusion_that_equals_the_bound(files, capsys, tmp_path):
    # C2 into Sym(3) concludes 1, and JSON's true loads as a bool equal to 1
    args = ["bound", "--factors", files["c2.pres"], "--target", files["s3.perm"], "--json"]
    doc = json.loads(run(args, capsys)[1])["certificate"]
    assert doc["conclusion"] == 1
    (tmp_path / "cert.json").write_text(json.dumps({**doc, "conclusion": True}))
    result = run(["verify", "--certificate", str(tmp_path / "cert.json"), "--json"], capsys)
    assert result == (1, "", "error: certificate.conclusion must be of type int\n")


def test_verify_names_the_contribution_of_an_out_of_range_degree(capsys, tmp_path):
    doc = certificate_to_doc(certify_embeddings(["G1", "G2"], 5))
    doc["per_factor"][0]["degree"] = str(10**6)
    (tmp_path / "cert.json").write_text(json.dumps(doc))
    result = run(["verify", "--certificate", str(tmp_path / "cert.json"), "--json"], capsys)
    assert result == (
        1, "", "error: certificate.per_factor[0]: embedding degree 1000000 out of range\n"
    )


def test_json_number_past_the_digit_limit_names_its_field(capsys, tmp_path):
    # json.loads raises Python's own digit-limit message on such a number;
    # the document is read again with the number kept as text, which the
    # field checks reject by name
    number = "9" * (MAX_DIGITS + 1)
    doc = certificate_to_doc(certify_embeddings(["G1", "G2"], 5))
    text = json.dumps({**doc, "conclusion": 0})
    text = text.replace('"conclusion": 0', f'"conclusion": {number}')
    (tmp_path / "cert.json").write_text(text)
    result = run(["verify", "--certificate", str(tmp_path / "cert.json"), "--json"], capsys)
    assert result == (1, "", f"error: certificate.conclusion has more than {MAX_DIGITS} digits\n")
    group = tmp_path / "group.json"
    group.write_text(f'{{"type": "perm", "degree": {number}, "generators": [[1, 0]]}}')
    result = run(["dmin", str(group)], capsys)
    assert result == (1, "", f"error: {group}: degree: must be a positive integer\n")


def test_witness_subcommand(files, capsys):
    status, out, _ = run(
        ["witness", "--factors", files["c2.pres"], files["c3.pres"],
         "--target", files["s3.perm"], "--json", "--reproducible"],
        capsys,
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["witness_order"] == "18"
    assert doc["hom_count"] == "12"
    assert doc["witness_d"] == 2


def test_witness_above_the_dmin_cap_leaves_out_witness_d(files):
    # in a child process: the order-4,320 quotient would raise this
    # process's peak RSS, which a child it starts later reads as its own
    report = files["dir"] / "witness.json"
    done = subprocess.run(
        [sys.executable, "-m", "genbound.cli", "witness", "--factors", files["c2.pres"],
         files["c3.pres"], "--target", files["a5.perm"], "--json", "--reproducible",
         "--output", str(report)],
        capture_output=True, text=True, env={"PYTHONPATH": str(Path(genbound.__file__).parent.parent)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(report.read_text())
    assert doc["witness_order"] == "4320"
    assert "witness_d" not in doc and "witness_d_exact" not in doc
    assert doc["witness_d_skipped"] == "witness order 4320 exceeds the d_min cap 512"


@pytest.mark.parametrize("cap,dedup", [("-1", []), ("0", ["--dedup"])], ids=["minus-1", "0-dedup"])
def test_witness_width_cap_below_1_is_one_error_line(files, capsys, cap, dedup):
    # every witness is at least one hom wide, so no such cap can be met
    status, out, err = run(
        ["witness", "--factors", files["c2.pres"], files["c3.pres"],
         "--target", files["a5.perm"], "--width-cap", cap, *dedup],
        capsys,
    )
    assert status == 1 and out == ""
    assert err == f"error: --width-cap {cap} is below 1: a witness is 1 hom wide or more\n"


def test_dmin_and_opsub(files, capsys):
    status, out, _ = run(["dmin", files["klein.perm"], "--json", "--reproducible"], capsys)
    assert status == 0
    assert json.loads(out)["d"] == 2

    status, out, _ = run(
        ["opsub", files["s4.perm"], "--prime", "2", "--json", "--reproducible"], capsys
    )
    assert status == 0
    assert json.loads(out)["order"] == "4"



# The benchmark's AGL(3,2) and Sym(4) wr C2 with their generators as written
# there, and the full reports: the witness pins the search order.
FROZEN_DMIN = {
    "agl-3-2": (
        [[1, 0, 3, 2, 5, 4, 7, 6], [0, 1, 3, 2, 4, 5, 7, 6], [0, 2, 4, 6, 1, 3, 5, 7]],
        "1344",
        ["(0, 1, 3, 2, 4, 5, 7, 6)", "(2, 5, 7, 0, 3, 4, 6, 1)"],
    ),
    "sym4-wr-c2": (
        [[1, 2, 3, 0, 4, 5, 6, 7], [1, 0, 2, 3, 4, 5, 6, 7], [4, 5, 6, 7, 0, 1, 2, 3]],
        "1152",
        ["(1, 2, 3, 0, 4, 5, 6, 7)", "(5, 7, 6, 4, 1, 0, 3, 2)"],
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_DMIN))
def test_dmin_reports_are_frozen(name, tmp_path, capsys):
    generators, order, witness = FROZEN_DMIN[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"type": "perm", "degree": 8, "generators": generators}))
    status, out, _ = run(["dmin", str(path), "--json", "--reproducible"], capsys)
    assert status == 0
    assert json.loads(out) == {
        "command": "dmin",
        "d": 2,
        "exact": True,
        "group": "perm-group(degree=8, generators=3)",
        "order": order,
        "witness": witness,
    }

def test_decompose_thm3(files, capsys):
    status, out, _ = run(
        ["decompose-thm3", "--factors", files["klein.perm"], files["c3.perm"],
         "--json", "--reproducible"],
        capsys,
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["s_prime"] == 2
    assert doc["t"] == 1
    assert doc["certificate"]["conclusion"] == 3


def _cayley_file(tmp_path, name, elements, mul):
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"type": "cayley", "order": len(table), "table": table}))
    return str(path)


def test_cayley_table_inputs(files, capsys, tmp_path):
    # Sym(5) in lexicographic order, a(b(x)) as in perm.compose; C13 as Z/13
    sym5 = _cayley_file(
        tmp_path, "sym5", list(itertools.permutations(range(5))),
        lambda a, b: tuple(a[x] for x in b),
    )
    c13 = _cayley_file(tmp_path, "c13", range(13), lambda a, b: (a + b) % 13)
    status, out, _ = run(
        ["homcount", "--factors", files["a5.pres"], "--target", sym5, "--json", "--reproducible"],
        capsys,
    )
    assert status == 0
    assert json.loads(out)["combined_count"] == "121"
    status, out, _ = run(["dmin", sym5, "--json", "--reproducible"], capsys)
    doc = json.loads(out)
    assert status == 0
    assert (doc["order"], doc["d"], doc["exact"]) == ("120", 2, True)
    docs = []
    for factor in (c13, files["c13.perm"]):
        status, out, _ = run(
            ["decompose-thm3", "--factors", files["c3.perm"], factor, "--json", "--reproducible"],
            capsys,
        )
        assert status == 0
        docs.append(json.loads(out))
    for doc in docs:  # the factor names differ: "cayley-group(...)" and "perm-group(...)"
        del doc["parts"], doc["certificate"]["factors"]
    assert docs[0] == docs[1]
    assert docs[0]["certificate"]["conclusion"] == 2
    assert docs[0]["construction"]["r"] == "13"


def test_construct_thm1(files, capsys):
    status, out, _ = run(
        ["construct-thm1", "--factors", files["c2.pres"], files["c3.pres"],
         "--prime", "7", "--m", "2", "--json", "--reproducible"],
        capsys,
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["target_order"] == "294"
    assert doc["construction"] == {"p": "7", "l": "1", "m": "2", "r": "6", "module_dims": [1, 1]}


def test_construct_thm4_n1(files, capsys):
    status, out, _ = run(
        ["construct-thm4", "--n", "1", "--json", "--reproducible"], capsys
    )
    assert status == 0
    doc = json.loads(out)["family"]
    assert doc["construction"]["k"] == "7"
    assert doc["construction"]["orders"] == ["21"]
    assert all(doc["flags"].values())
    assert doc["certificate"]["conclusion"] == 2


THM4_N2_FLAGS = sorted(
    [f"{claim}[{i}]" for claim in (
        "abelianization-cyclic-of-order-p", "block-sizes-distinct", "crt-residues",
        "decomposition-members", "decomposition-sum", "derived-subgroup-is-translations",
        "multiplier-order", "prime-divides-q-minus-1", "two-generated",
    ) for i in range(2)]
    + [f"{claim}[{i}.{j}]" for claim in ("block-centralizer-trivial", "block-transitive")
       for i, j in [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3)]]
    + ["orders-pairwise-coprime", "prime-sets-disjoint"]
)


def test_construct_thm4_n2_report_is_frozen(capsys):
    status, out, _ = run(
        ["construct-thm4", "--n", "2", "--json", "--reproducible"], capsys
    )
    assert status == 0
    flags = json.loads(out)["family"]["flags"]
    assert sorted(flags) == THM4_N2_FLAGS and len(flags) == 32
    assert all(flags.values())
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "24596b88c29918e4c37d27bdb524e7bde9667a905fa3ac2d7be19d80aa9910e3"
    )


def test_construct_thm4_n1_text_report(capsys):
    # without --json the report is rendered as text: a nested object indents
    # its keys, a list of at most 100 characters stays on its key's line and
    # a longer one puts each item on a "- " line of its own
    status, out, _ = run(["construct-thm4", "--n", "1", "--reproducible"], capsys)
    assert status == 0
    lines = out.splitlines()
    assert lines[:9] == [
        "command: construct-thm4",
        "family:",
        "  schema: genbound-family/1",
        "  n: 1",
        "  construction:",
        '    primes: ["3"]',
        "    modulus: 3",
        '    residues: ["1"]',
        "    prime_sets:",
    ]
    assert lines[9].startswith('      - ["7", "13", "19", ')
    assert "    k: 7" in lines and "    exhaustive-cross-check[0]: True" in lines
    assert lines[-1] == "    total_h: 1.000023271467696"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d2254268af9242325c54f23d9c990808144bf43ba11d5445a6a08646b6163cf1"
    )


def test_verify_family_certificate(files, capsys, tmp_path):
    report = tmp_path / "family.json"
    run(["construct-thm4", "--n", "1", "--json", "--reproducible",
         "--output", str(report)], capsys)
    status, out, _ = run(
        ["verify", "--certificate", str(report), "--json", "--reproducible"], capsys
    )
    assert status == 0
    assert json.loads(out)["valid"] is True


def test_reports_are_reproducible(files, capsys):
    args = ["bound", "--factors", files["c2.pres"], "--target", files["s3.perm"],
            "--json", "--reproducible"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


def test_timestamp_present_without_reproducible(files, capsys):
    status, out, _ = run(
        ["bound", "--factors", files["c2.pres"], "--target", files["s3.perm"], "--json"],
        capsys,
    )
    assert status == 0
    assert "generated_at" in json.loads(out)


def test_error_exit_code_on_missing_file(files, capsys):
    status, out, err = run(
        ["bound", "--factors", "/nonexistent.json", "--target", files["s3.perm"]],
        capsys,
    )
    assert status == 1
    assert "error" in err


def test_overlong_relator_is_an_error(files, capsys):
    path = files["dir"] / "long.pres.json"
    path.write_text(json.dumps(
        {"type": "presentation", "generators": ["a", "b"], "relators": ["(a*b)^1000000000"]}
    ))
    status, _, err = run(["homcount", "--factors", str(path), "--target", files["s3.perm"]], capsys)
    assert status == 1
    assert err.startswith("error:") and "syllables" in err


def test_unknown_flag_rejected(files):
    with pytest.raises(SystemExit):
        main(["bound", "--factors", files["c2.pres"], "--target", files["s3.perm"],
              "--no-such-flag"])


def test_verify_requires_a_certificate(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["verify", "--json", "--reproducible"])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert "required" in err and "--certificate" in err


def test_presentation_where_group_expected(files, capsys):
    status, _, err = run(
        ["dmin", files["c2.pres"], "--json", "--reproducible"], capsys
    )
    assert status == 1
    assert "realized group" in err


def test_construct_thm1_searches_repeated_factors_once(files, capsys, monkeypatch):
    # cyclic factors take the closed form, which builds each distinct
    # factor's action once
    import genbound.constructions as constructions
    import genbound.modules as modules

    entries, built = [], []
    closed_form = constructions.cyclic_modules
    init = modules.ModuleAction.__init__

    def counted_entry(factors, p):
        entries.append([f.name for f in factors])
        return closed_form(factors, p)

    def counted_build(action, *args):
        init(action, *args)
        built.append(action.source.name)

    monkeypatch.setattr(constructions, "cyclic_modules", counted_entry)
    monkeypatch.setattr(modules.ModuleAction, "__init__", counted_build)
    status, out, _ = run(
        ["construct-thm1", "--factors", files["c3.pres"], files["c2.pres"], files["c3.pres"],
         "--prime", "7", "--json", "--reproducible"],
        capsys,
    )
    assert status == 0
    assert entries == [["C3", "C2", "C3"]]
    assert built == ["C3", "C2"]
    assert json.loads(out)["construction"]["module_dims"] == [1, 1, 1]


def test_construct_thm1_builds_r_once(files, capsys, r_builds):
    status, out, _ = run(
        ["construct-thm1", "--factors", files["c2.pres"], files["c3.pres"],
         "--prime", "7", "--json", "--reproducible"],
        capsys,
    )
    assert status == 0
    assert json.loads(out)["construction"]["m"] == "1"
    assert len(r_builds) == 1


def test_search_cap_is_one_error_line(capsys, monkeypatch):
    # the least prime = 1 (mod 2*3*...*19 = 9699690) is the 11th candidate
    # of its progression, past a cap of 10 candidates
    import genbound.numtheory as numtheory

    monkeypatch.setattr(numtheory, "DIRICHLET_CANDIDATE_CAP", 10)
    status, out, err = run(["construct-solsol", "--primes", "2,3,5,7,11,13,17,19"], capsys)
    assert status == 1
    assert out == ""
    assert err.startswith("error: no prime = 1 (mod 9699690)")
    assert err.count("\n") == 1 and "Traceback" not in err


# a prime, whose trial division to its square root would take about 1.5e9 steps
MERSENNE_61 = 2**61 - 1


@pytest.fixture
def five_second_deadline():
    """Fails the test with TimeoutError if it runs past 5 s."""

    def expire(signum, frame):
        raise TimeoutError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dmin", "@matrix"], "prime: must be a prime integer below 2^32"),
        (["opsub", "@s4.perm", "--prime", str(MERSENNE_61)],
         f"--prime value {MERSENNE_61} is not below 2^32"),
        (["construct-thm1", "--factors", "@c2.pres", "--prime", str(MERSENNE_61)],
         f"--prime value {MERSENNE_61} is not below 2^32"),
        (["construct-solsol", "--primes", f"2,{MERSENNE_61}"],
         f"--primes value {MERSENNE_61} is not below 2^32"),
        # each prime is below 2^32, but the Dirichlet modulus, their product, is not
        (["construct-solsol", "--primes", "4294967291,4294967279"],
         "--primes product value 18446743979220271189 is not below 2^32"),
    ],
    ids=["dmin-matrix-prime", "opsub", "construct-thm1", "construct-solsol",
         "construct-solsol-product"],
)
def test_an_input_prime_from_2_to_the_32_is_one_error_line(
    files, capsys, five_second_deadline, argv, message
):
    matrix = files["dir"] / "big-prime.json"
    matrix.write_text(json.dumps(
        {"type": "matrix", "prime": MERSENNE_61, "dim": 1, "generators": [[2]]}
    ))
    files = {**files, "matrix": str(matrix)}
    args = [files[arg[1:]] if arg.startswith("@") else arg for arg in argv]
    status, out, err = run(args, capsys)
    assert status == 1 and out == ""
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert err.count("\n") == 1


# -- paper-scale cyclic factors: closed-form modules, R never enumerated -------


@pytest.fixture
def r_unenumerated(monkeypatch):
    """Fails any enumeration of a point group R that `genbound.constructions` builds."""
    import genbound.constructions as constructions

    class Unenumerated(constructions.MatrixGroup):
        def _generate(self):
            raise AssertionError("R was enumerated")

    monkeypatch.setattr(constructions, "MatrixGroup", Unenumerated)


def _cyclic_files(tmp_path, *orders):
    paths = []
    for m in orders:
        path = tmp_path / f"c{m}.json"
        path.write_text(json.dumps(
            {"type": "presentation", "generators": ["a"], "relators": [f"a^{m}"], "name": f"C{m}"}
        ))
        paths.append(str(path))
    return paths


def test_construct_thm1_c5_c7_over_f2(capsys, tmp_path, r_unenumerated):
    report = tmp_path / "thm1.json"
    status, _, _ = run(
        ["construct-thm1", "--factors", *_cyclic_files(tmp_path, 5, 7), "--prime", "2",
         "--json", "--reproducible", "--output", str(report)],
        capsys,
    )
    assert status == 0
    doc = json.loads(report.read_text())
    assert doc["construction"] == {"p": "2", "l": "12", "m": "1", "r": "35", "module_dims": [4, 3]}
    assert doc["target_order"] == "143360"  # 2^12 * 35
    status, out, _ = run(["verify", "--certificate", str(report), "--json", "--reproducible"], capsys)
    assert status == 0
    assert json.loads(out) == {"command": "verify", "valid": True, "conclusion": 2}


def test_construct_thm1_c11_c31_over_f2(capsys, tmp_path, r_unenumerated):
    status, out, _ = run(
        ["construct-thm1", "--factors", *_cyclic_files(tmp_path, 11, 31), "--prime", "2",
         "--json", "--reproducible"],
        capsys,
    )
    assert status == 0
    construction = json.loads(out)["construction"]
    assert construction == {"p": "2", "l": "10", "m": "1", "r": "341", "module_dims": [10, 5]}


def test_construct_thm1_p_power_factor_is_one_error_line(capsys, tmp_path):
    status, out, err = run(
        ["construct-thm1", "--factors", *_cyclic_files(tmp_path, 8, 7), "--prime", "2"], capsys
    )
    assert status == 1 and out == ""
    assert err == "error: C8 has no nontrivial irreducible action over F_2: its order 8 is a power of 2\n"


def test_construct_thm1_without_a_module_within_the_gl_cap_is_one_error_line(
    capsys, tmp_path, monkeypatch
):
    # A5's nontrivial irreducible modules over F_2 have dimension 4, and
    # |GL(4, 2)| = 20,160 is past the lowered cap
    monkeypatch.setattr(genbound.modules, "DEFAULT_GL_ORDER_CAP", 200)
    path = tmp_path / "a5.json"
    path.write_text(json.dumps({
        "type": "presentation", "generators": ["a", "b"],
        "relators": ["a^2", "b^3", "(a*b)^5"], "name": "A5",
    }))
    status, out, err = run(
        ["construct-thm1", "--factors", str(path), str(path), "--prime", "2"], capsys
    )
    assert status == 1 and out == ""
    assert err == (
        "error: no nontrivial irreducible action of A5 over F_2 below dimension 4 "
        "(dim 4: matrix group order 20160 exceeds cap 200)\n"
    )


def test_construct_thm1_with_no_dimension_within_the_gl_cap_is_one_error_line(capsys, tmp_path):
    # |GL(1, 30011)| = 30,010 already exceeds the cap: no dimension is searched
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({
        "type": "presentation", "generators": ["a", "b"],
        "relators": ["a^2", "b^3", "(a*b)^2"], "name": "S3",
    }))
    status, out, err = run(["construct-thm1", "--factors", str(path), "--prime", "30011"], capsys)
    assert status == 1 and out == ""
    assert err == (
        "error: no nontrivial irreducible action of S3 over F_30011 below dimension 1 "
        "(dim 1: matrix group order 30010 exceeds cap 25000)\n"
    )


@pytest.mark.parametrize(
    "n, message",
    [
        (3, "embedding degree 207824 out of range"),
        (4, "no common subset sum up to 640000 of the primes up to 128000"),
        (10**6, "no common subset sum for n = 1000000: the first 6 odd primes multiply "
                "to 255255, past the sieve ceiling 131072"),
    ],
    ids=["n3-degree", "n4-ceiling", "n1000000-primes"],
)
def test_construct_thm4_past_n_2_is_one_error_line(capsys, n, message):
    start = time.perf_counter()
    status, out, err = run(["construct-thm4", "--n", str(n)], capsys)
    elapsed = time.perf_counter() - start
    assert status == 1 and out == ""
    assert err == f"error: {message}\n"
    assert elapsed < 1, elapsed


def test_decompose_thm3_without_a_module_reports_the_missing_factor(files, capsys, monkeypatch):
    # Alt(5) avoids p = 2 in its abelianization, so it stays as a factor, and
    # its first nontrivial module over F_2, in GL(4, 2), is past the cap
    monkeypatch.setattr(genbound.modules, "DEFAULT_GL_ORDER_CAP", 200)
    status, out, _ = run(
        ["decompose-thm3", "--factors", files["a5.perm"], files["klein.perm"],
         "--json", "--reproducible"],
        capsys,
    )
    assert status == 2
    assert json.loads(out) == {
        "command": "decompose-thm3",
        "s_prime": 2,
        "p": "2",
        "t": 1,
        "parts": ["perm-group(degree=5, generators=2)/O_2", "C2^2"],
        "residual_rank": 2,
        "conditional": True,
        "missing_modules": ["perm-group(degree=5, generators=2)/O_2"],
    }


def test_construct_solsol_eight_primes(capsys, r_unenumerated):
    status, out, _ = run(
        ["construct-solsol", "--primes", "2,3,5,7,11,13,17,19", "--json", "--reproducible"], capsys
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["dirichlet_prime"] == "106696591"
    assert doc["construction"] == {"p": "106696591", "l": "1", "m": "7", "r": "9699690"}
    assert doc["certificate"]["conclusion"] == 8


# one CLI job in a process of its own; prints its exit status, the seconds
# `main` took and the process's peak resident set in KiB. The peak is read
# from VmHWM where /proc has it: Linux carries ru_maxrss across exec, so a
# child would report the test runner's peak if that one is larger
TIMED_JOB = """
import resource, sys, time
from genbound.cli import main
start = time.perf_counter()
status = main(sys.argv[1:])
elapsed = time.perf_counter() - start
try:
    with open("/proc/self/status") as status_file:
        peak = next(int(line.split()[1]) for line in status_file if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(status, elapsed, peak)
"""


def test_free_pair_into_sym10_reports_the_overflow_at_once(tmp_path):
    # b would take all 3,628,800 elements of Sym(10); the count reads that
    # from the class sizes, where enumerating Sym(10) reads 10^6 elements
    # before it overflows
    free = tmp_path / "free.json"
    free.write_text(json.dumps({"type": "presentation", "generators": ["a", "b"], "relators": []}))
    sym10 = tmp_path / "sym10.json"
    sym10.write_text(json.dumps(
        {"type": "perm", "degree": 10, "generators": [[*range(1, 10), 0], [1, 0, *range(2, 10)]]}
    ))
    src = str(Path(genbound.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", TIMED_JOB, "homcount", "--factors", str(free), "--target", str(sym10)],
        capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60,
    )
    status, seconds, peak_kib = done.stdout.split()
    assert status == "1"
    assert done.stderr == "error: closure overflow: more than 1000000 elements\n"
    assert float(seconds) < 0.5
    assert int(peak_kib) < 60 * 1024
