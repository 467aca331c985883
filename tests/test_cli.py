import json
from pathlib import Path

import jsonschema
import pytest

from cqelite.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schema" / "cli-output.schema.json").read_text()
)

TBOX = "ProjA [= Supplier\nProjB [= Supplier\n"
ABOX = "ProjA(c)\nProjB(c)\n"
POLICY = "denial :- ProjA(X), ProjB(X)\n"
QUERY_S = "q :- Supplier(c)\n"
QUERY_A = "q :- ProjA(c)\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("tbox", TBOX),
        ("abox", ABOX),
        ("policy", POLICY),
        ("query_s", QUERY_S),
        ("query_a", QUERY_A),
    ):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_consistency_running_example(files, capsys):
    code, payload = run_json(
        capsys,
        ["consistency", "--tbox", files["tbox"], "--abox", files["abox"], "--policy", files["policy"]],
    )
    assert code == 0
    assert payload == {"tbox_abox_consistent": True, "policy_consistent": False}


def test_consistency_empty_abox(files, capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, payload = run_json(
        capsys,
        ["consistency", "--tbox", files["tbox"], "--abox", str(empty), "--policy", files["policy"]],
    )
    assert code == 0
    assert payload == {"tbox_abox_consistent": True, "policy_consistent": True}


def test_consistency_parse_error_exit_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("ProjA [= \n")
    code = main(["consistency", "--tbox", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "tbox:1:" in err


@pytest.mark.parametrize(
    "raw, where",
    [
        (b"\xff", "abox:1:1"),
        (b"ProjA(c)\n\xff", "abox:2:1"),
        # columns count characters, as the parser's do, and a CRLF is one break
        (b"ProjA(c)\r\nProjB(\xc3\xa9\xfe)\n", "abox:2:8"),
    ],
)
def test_non_utf8_file_is_a_positioned_parse_error(files, capsys, tmp_path, raw, where):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(raw)
    code = main(["closure", "--tbox", files["tbox"], "--abox", str(bad)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {where}: not valid UTF-8\n"


@pytest.mark.parametrize(
    "texts, where",
    [
        ({"abox": "B(a)\nA(a,b)\n"}, "abox:2:1: 'A'"),
        ({"policy": "denial :- B(X), A(X,Y)\n"}, "policy:1:17: 'A'"),
        ({"policy": "denial :- R(X,Y)\n", "query": "q :- R(c)\n"}, "query:1:6: 'R'"),
    ],
)
def test_cross_file_arity_clash_is_reported_in_the_later_file(capsys, tmp_path, texts, where):
    """The files are read in the order tbox, abox, policy, query, with one
    arity per name across them."""
    texts = {"tbox": "A [= B\n", "abox": "", "policy": "", "query": "q :- B(c)\n", **texts}
    argv = ["entail"]
    for kind, text in texts.items():
        (tmp_path / kind).write_text(text)
        argv += [f"--{kind}", str(tmp_path / kind)]
    assert main(argv) == 2
    name = where.split()[-1]
    assert capsys.readouterr().err == f"error: {where} used as both concept and role near {name}\n"


def test_closure_text_output(files, capsys):
    code = main(
        ["closure", "--tbox", files["tbox"], "--abox", files["abox"], "--format", "text"]
    )
    assert code == 0
    assert capsys.readouterr().out == "ProjA(c)\nProjB(c)\nSupplier(c)\n"


def test_closure_empty(files, capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code = main(["closure", "--tbox", files["tbox"], "--abox", str(empty), "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_closure_inconsistent_exit_3(capsys, tmp_path):
    (tmp_path / "t.txt").write_text("A [= -B\n")
    (tmp_path / "a.txt").write_text("A(c)\nB(c)\n")
    code = main(["closure", "--tbox", str(tmp_path / "t.txt"), "--abox", str(tmp_path / "a.txt")])
    assert code == 3


@pytest.mark.parametrize("semantics", ["certain", "ib", "qib", "qib-fo"])
def test_entail_inconsistent_exit_3(capsys, tmp_path, semantics):
    (tmp_path / "t.txt").write_text("A [= -B\n")
    (tmp_path / "a.txt").write_text("A(c)\nB(c)\n")
    (tmp_path / "p.txt").write_text("denial :- A(X), B(X)\n")
    (tmp_path / "q.txt").write_text("q :- A(c)\n")
    code = main(
        [
            "entail",
            "--tbox", str(tmp_path / "t.txt"),
            "--abox", str(tmp_path / "a.txt"),
            "--policy", str(tmp_path / "p.txt"),
            "--query", str(tmp_path / "q.txt"),
            "--semantics", semantics,
        ]
    )
    assert code == 3
    assert capsys.readouterr().out == ""


def test_censor_lex_text(files, capsys):
    code = main(
        [
            "censor",
            "--tbox", files["tbox"],
            "--abox", files["abox"],
            "--policy", files["policy"],
            "--format", "text",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "ProjA(c)\nSupplier(c)\n"


def test_censor_order_file(files, capsys, tmp_path):
    order = tmp_path / "order.txt"
    order.write_text("Supplier(c)\nProjB(c)\nProjA(c)\n")
    code = main(
        [
            "censor",
            "--tbox", files["tbox"],
            "--abox", files["abox"],
            "--policy", files["policy"],
            "--order-file", str(order),
            "--format", "text",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "ProjB(c)\nSupplier(c)\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("Supplier(c)\nProjB(c)\n# a comment\nProjA(c\n", "order:4:8: expected ')'"),
        ("Supplier(c)\nProjB(c)\nProjB(c,c)\n", "order:3:1: 'ProjB' used as both concept and role near 'ProjB'"),
    ],
)
def test_censor_order_file_errors_name_the_order_file(files, capsys, tmp_path, text, message):
    order = tmp_path / "order.txt"
    order.write_text(text)
    code = main(
        [
            "censor",
            "--tbox", files["tbox"],
            "--abox", files["abox"],
            "--policy", files["policy"],
            "--order-file", str(order),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_censor_enumerate(files, capsys):
    code, payload = run_json(
        capsys,
        [
            "censor",
            "--tbox", files["tbox"],
            "--abox", files["abox"],
            "--policy", files["policy"],
            "--enumerate",
        ],
    )
    assert code == 0
    assert payload["count"] == 2
    assert sorted(payload["censors"]) == [
        ["ProjA(c)", "Supplier(c)"],
        ["ProjB(c)", "Supplier(c)"],
    ]


def test_censor_empty_policy_echoes_closure(files, capsys, tmp_path):
    empty = tmp_path / "nopolicy.txt"
    empty.write_text("")
    code = main(
        [
            "censor",
            "--tbox", files["tbox"],
            "--abox", files["abox"],
            "--policy", str(empty),
            "--format", "text",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "ProjA(c)\nProjB(c)\nSupplier(c)\n"


def test_censor_size_guard_exit_4(capsys, tmp_path):
    (tmp_path / "t.txt").write_text("")
    (tmp_path / "p.txt").write_text("denial :- A(X), B(X)\n")
    (tmp_path / "a.txt").write_text("".join(f"A(c{i})\n" for i in range(5)))
    code = main(
        [
            "censor",
            "--tbox", str(tmp_path / "t.txt"),
            "--abox", str(tmp_path / "a.txt"),
            "--policy", str(tmp_path / "p.txt"),
            "--enumerate",
            "--limit", "3",
        ]
    )
    assert code == 4


@pytest.mark.parametrize(
    "abox,code",
    [
        ("A(c)\nB(c)\nC(d)\nC(e)\n", 3),  # inconsistent and over the guard
        ("A(c)\nC(d)\nC(e)\nC(f)\n", 4),
        ("A(c)\nC(d)\n", 0),
    ],
)
def test_entail_ib_consistency_before_size_guard(capsys, tmp_path, abox, code):
    (tmp_path / "t.txt").write_text("A [= -B\n")
    (tmp_path / "a.txt").write_text(abox)
    (tmp_path / "p.txt").write_text("denial :- A(X), C(X)\n")
    (tmp_path / "q.txt").write_text("q :- C(d)\n")
    argv = [
        "entail",
        "--tbox", str(tmp_path / "t.txt"),
        "--abox", str(tmp_path / "a.txt"),
        "--policy", str(tmp_path / "p.txt"),
        "--query", str(tmp_path / "q.txt"),
        "--semantics", "ib",
        "--limit", "3",
    ]
    assert main(argv) == code
    out = capsys.readouterr().out
    if code:
        assert out == ""
    else:
        assert json.loads(out)["entailed"] is True


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_cqe_limit_exit_2(files, capsys, monkeypatch, value):
    monkeypatch.setenv("CQE_LIMIT", value)
    inputs = ["--tbox", files["tbox"], "--abox", files["abox"], "--policy", files["policy"]]
    assert main(["censor", "--enumerate"] + inputs) == 2
    assert "CQE_LIMIT" in capsys.readouterr().err
    # commands that never consult the size guard ignore it
    assert main(["consistency"] + inputs) == 0


@pytest.mark.parametrize(
    "query,semantics,want",
    [
        ("query_s", "ib", True),
        ("query_a", "qib", False),
        ("query_s", "certain", True),
        ("query_s", "qib", True),
        ("query_s", "qib-fo", True),
        ("query_a", "qib-fo", False),
        ("query_a", "ib", False),
    ],
)
def test_entail_semantics(files, capsys, query, semantics, want):
    code, payload = run_json(
        capsys,
        [
            "entail",
            "--tbox", files["tbox"],
            "--abox", files["abox"],
            "--policy", files["policy"],
            "--query", files[query],
            "--semantics", semantics,
        ],
    )
    assert code == 0
    assert payload["entailed"] is want
    assert payload["semantics"] == semantics
    assert payload["elapsed_ms"] >= 0


@pytest.mark.parametrize(
    "semantics,want", [("certain", True), ("ib", False), ("qib", False), ("qib-fo", False)]
)
def test_qib_fo_witness_never_captures_a_guard_variable(tmp_path, capsys, semantics, want):
    """`qib-fo` expands the guard atom `B(X_v1)` under `ex R [= B` with a
    fresh witness that must not be named `X_v1` too, or the guard would
    ask for the loop `R(X_v1, X_v1)`, find none and keep `B(c)` visible."""
    from cqelite import parse_abox, parse_policy, parse_query, parse_tbox, qib_entail_bruteforce

    texts = {
        "tbox": "ex R [= B\nex R- [= D\nrole R [= R\n",
        "policy": "denial :- A(X), R(X,X), S(a,Y)\ndenial :- B(Z), D(X), S(X,Z)\n",
        "abox": "C(b)\nD(a)\nR(c,b)\nS(b,c)\nS(c,c)\n",
        "query": "q :- B(X)\n",
    }
    argv = ["entail", "--semantics", semantics]
    for name, text in texts.items():
        (tmp_path / f"{name}.txt").write_text(text)
        argv += [f"--{name}", str(tmp_path / f"{name}.txt")]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload["entailed"] is want
    t, p, a = parse_tbox(texts["tbox"]), parse_policy(texts["policy"]), parse_abox(texts["abox"])
    assert qib_entail_bruteforce(t, p, a, parse_query(texts["query"])) is False


def test_qib_and_qib_fo_agree_on_generated_instances(tmp_path, capsys):
    from cqelite.gen import random_bcq, random_instance
    from cqelite.parser import serialize
    import random

    rng = random.Random(55)
    for seed in (3, 7, 12):
        t, p, a = random_instance(seed, n_atoms=5)
        (tmp_path / "t.txt").write_text(serialize(t))
        (tmp_path / "a.txt").write_text(serialize(a))
        (tmp_path / "p.txt").write_text(serialize(p))
        for _ in range(4):
            (tmp_path / "q.txt").write_text(serialize(random_bcq(rng, t)))
            verdicts = {}
            for semantics in ("qib", "qib-fo"):
                code, payload = run_json(
                    capsys,
                    [
                        "entail",
                        "--tbox", str(tmp_path / "t.txt"),
                        "--abox", str(tmp_path / "a.txt"),
                        "--policy", str(tmp_path / "p.txt"),
                        "--query", str(tmp_path / "q.txt"),
                        "--semantics", semantics,
                    ],
                )
                assert code == 0
                verdicts[semantics] = payload["entailed"]
            assert verdicts["qib"] == verdicts["qib-fo"]


def test_rewrite_json_and_determinism(files, capsys):
    argv = [
        "rewrite",
        "--tbox", files["tbox"],
        "--policy", files["policy"],
        "--query", files["query_s"],
    ]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert "ProjA(c)" in payload["query"]
    assert payload["report"]["perfect_ref_size"] == 3
    code2, payload2 = run_json(capsys, argv)
    assert payload == payload2


def test_rewrite_trivial(capsys, tmp_path):
    (tmp_path / "t.txt").write_text("")
    (tmp_path / "p.txt").write_text("")
    (tmp_path / "q.txt").write_text("q :- A(c)\n")
    code = main(
        [
            "rewrite",
            "--tbox", str(tmp_path / "t.txt"),
            "--policy", str(tmp_path / "p.txt"),
            "--query", str(tmp_path / "q.txt"),
            "--format", "text",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "A(c)"


def test_gen_reproducible(tmp_path, capsys):
    code, payload = run_json(
        capsys, ["gen", "--seed", "1", "--out-dir", str(tmp_path / "g1")]
    )
    assert code == 0
    first = {p: Path(p).read_text() for p in payload["files"]}
    code, payload2 = run_json(
        capsys, ["gen", "--seed", "1", "--out-dir", str(tmp_path / "g2")]
    )
    second = {Path(p).name: Path(p).read_text() for p in payload2["files"]}
    assert {Path(p).name: t for p, t in first.items()} == second


def test_gen_zero_denials(tmp_path, capsys):
    code, payload = run_json(
        capsys,
        ["gen", "--seed", "2", "--out-dir", str(tmp_path), "--denials", "0"],
    )
    assert code == 0
    assert (tmp_path / "policy.txt").read_text() == ""


def test_gen_output_is_consistent_and_loadable(tmp_path, capsys):
    from cqelite import ABox, is_consistent, is_policy_consistent, parse_abox, parse_policy, parse_tbox

    for seed in range(5):
        out = tmp_path / f"s{seed}"
        code = main(["gen", "--seed", str(seed), "--out-dir", str(out)])
        assert code == 0
        capsys.readouterr()
        t = parse_tbox((out / "tbox.txt").read_text())
        a = parse_abox((out / "abox.txt").read_text())
        p = parse_policy((out / "policy.txt").read_text())
        assert is_consistent(t, a)
        assert is_policy_consistent(t, p, ABox.of())


@pytest.mark.parametrize(
    "flag,value,pool",
    [("--constants", "100", "8 constants"), ("--concepts", "9", "8 concepts"), ("--roles", "5", "4 roles")],
)
def test_gen_refuses_counts_above_its_pools(tmp_path, capsys, flag, value, pool):
    out = tmp_path / "g"
    code = main(["gen", "--seed", "7", "--atoms", "2000", flag, value, "--out-dir", str(out)])
    assert code == 2
    assert f"at most {pool}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,least",
    [
        ("--constants", "0", 1),
        ("--constants", "-1", 1),
        ("--concepts", "0", 1),
        ("--roles", "-1", 0),
        ("--atoms", "-3", 0),
        ("--denials", "-1", 0),
    ],
)
def test_gen_refuses_counts_below_their_floor(tmp_path, capsys, flag, value, least):
    out = tmp_path / "g"
    code = main(["gen", "--seed", "1", flag, value, "--out-dir", str(out)])
    assert code == 2
    assert f"must be at least {least}, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_zero_roles(tmp_path, capsys):
    code, _ = run_json(capsys, ["gen", "--seed", "1", "--out-dir", str(tmp_path), "--roles", "0"])
    assert code == 0
    assert "," not in (tmp_path / "abox.txt").read_text()
