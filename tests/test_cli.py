import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import thomplink
from thomplink import cli
from thomplink.cli import main
from thomplink.conway import MAX_CODE_CROSSINGS, two_bridge_diagram
from thomplink.links import LinkDiagram, direct_link, disjoint_union
from thomplink.pairs import TreePair, make_generator, reduce_pair
from thomplink.svg import tait_graph_svg
from thomplink.tait import tait_graph
from thomplink.trees import random_tree


def run_child(argv, **kwargs):
    """Run the CLI in a new interpreter that imports this copy of the package
    through an absolute path, so it works from any working directory."""
    env = dict(os.environ, PYTHONPATH=str(Path(thomplink.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "thomplink", *argv], capture_output=True, env=env, **kwargs)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_element_mul_identity(capsys):
    code, out, _ = run(capsys, "element", "mul", "x0", "x0^-1")
    assert code == 0
    assert "leaves: 1" in out
    assert "(identity)" in out


def test_element_word_and_json(capsys):
    code, out, _ = run(capsys, "element", "word", "x0 x0 x0 x2^-1 x0^-1 x0^-1 x0^-1")
    assert code == 0
    assert out.strip() == "x0^2 x1^-1 x0^-2"
    code, out, _ = run(capsys, "element", "parse", "x1", "--format", "json")
    data = json.loads(out)
    assert data["schema"] == 1 and data["leaves"] == 4


def test_large_element_word_round_trip(capsys):
    # the word of a random element of about 3,000 leaves parses back to it
    rng = Random(41)
    p = reduce_pair(TreePair(random_tree(3000, rng), random_tree(3000, rng)))
    assert p.leaf_count > 2500
    code, word, _ = run(capsys, "element", "word", p.to_json())
    assert code == 0
    code, out, _ = run(capsys, "element", "parse", word, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["source"], data["target"]) == (p.source.bits, p.target.bits)


def test_element_accepts_pair_json(capsys):
    code, out, _ = run(capsys, "element", "reduce", '{"source": "100", "target": "100"}')
    assert code == 0
    assert "leaves: 1" in out


def test_conjugate_verdicts(capsys):
    code, out, _ = run(capsys, "conjugate", "x0", "x1")
    assert code == 0 and out.strip() == "not conjugate"
    code, out, _ = run(capsys, "conjugate", "x1", "x2")
    assert code == 0 and out.strip() == "conjugate"


def test_link_formats(capsys):
    code, out, _ = run(capsys, "link", "x0", "--format", "pd")
    assert code == 0
    assert out.strip().splitlines()[-1] == "O 0"
    code, out, _ = run(capsys, "link", "x0", "--simplify", "--format", "json")
    data = json.loads(out)
    assert data["crossings"] == [] and data["free_loops"] == 1
    code, out, _ = run(capsys, "link", "x0", "--format", "svg")
    assert out.startswith("<svg")
    code, out, _ = run(capsys, "link", "x0", "--format", "tait-svg")
    assert out.startswith("<svg")


def test_tait_svg_draws_the_tait_graph(capsys):
    code, out, _ = run(capsys, "link", "x1", "--format", "tait-svg")
    assert code == 0 and out == tait_graph_svg(tait_graph(make_generator(1))) + "\n"
    code, out, err = run(capsys, "link", "x1", "--simplify", "--format", "tait-svg")
    assert code == 1 and out == "" and "unsimplified" in err


def test_bracket_command(capsys):
    code, out, _ = run(capsys, "bracket", "x0")
    assert code == 0 and out.strip() == "1*A^0"
    code, out, _ = run(capsys, "bracket", "x0", "--format", "json")
    assert json.loads(out)["bracket"] == "1*A^0"


def test_experiments(capsys):
    code, out, _ = run(capsys, "experiment", "thm1", "--n", "3")
    assert code == 0
    assert "brackets all equivalent to h1: yes" in out
    assert "annular codes pairwise distinct: yes" in out
    code, out, _ = run(capsys, "experiment", "thm2", "--gen", "x0", "--n", "2")
    assert code == 0
    assert "n=2: conjugate to x0: yes; link matches C(1,1,1,1): yes" in out
    code, out, _ = run(capsys, "experiment", "thm2", "--gen", "x1", "--n", "2", "--format", "json")
    rows = json.loads(out)["rows"]
    assert all(r["conjugate_to_generator"] and r["link_matches"] for r in rows)


def _with_free_loop(d):
    return disjoint_union(d, LinkDiagram((), 1))


def test_an_extra_unknot_fails_the_theorem_checks(capsys, monkeypatch):
    # both theorem checks allow no split unknot: a 4-plat oracle times
    # DELTA matches no x0 row, and a wrapped row with one more free loop
    # is not the same link as h1
    monkeypatch.setattr(cli, "two_bridge_diagram", lambda code: _with_free_loop(two_bridge_diagram(code)))
    code, out, _ = run(capsys, "experiment", "thm2", "--gen", "x0", "--n", "5", "--format", "json")
    assert code == 0 and not any(r["link_matches"] for r in json.loads(out)["rows"])
    monkeypatch.undo()
    built = []

    def loop_after_h1(p):
        built.append(p)
        return direct_link(p) if len(built) == 1 else _with_free_loop(direct_link(p))

    monkeypatch.setattr(cli, "direct_link", loop_after_h1)
    code, out, _ = run(capsys, "experiment", "thm1", "--n", "3", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["codes_distinct"] and not data["same_link"]


def test_readme_cli_block_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) >= 9 and all(argv[0] == "thomplink" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()


def test_oracle_two_bridge(capsys):
    code, out, _ = run(capsys, "oracle", "two-bridge", "1,1", "--format", "json")
    data = json.loads(out)
    assert data["fraction"] == [2, 1]
    assert data["components"] == 2
    assert data["bracket"] == "-1*A^4 + -1*A^-4"


def test_domain_errors_exit_1(capsys):
    assert run(capsys, "element", "parse", "xq")[0] == 1
    # the twist pass leaves 6 crossings of this link, which need 5 states
    assert run(capsys, "bracket", "x0 x1^3 x0^-1", "--no-simplify", "--max-states", "1")[0] == 1
    assert run(capsys, "oracle", "two-bridge", "0,1")[0] == 1


@pytest.mark.parametrize(
    "argv, status",
    [
        (["experiment", "thm1", "--n", "0"], 2),
        (["element", "parse", '{"source":5,"target":"0"}'], 1),
        (["experiment", "thm2", "--gen", "x0", "--n", "-1"], 2),
        (["bracket", "x0", "--max-states", "-1"], 2),
        (["oracle", "two-bridge", "1,1", "--max-crossings", "30"], 2),  # no such option
        (["oracle", "two-bridge", f"1,{MAX_CODE_CROSSINGS}"], 1),  # past the code size bound
        (["element", "parse", "x\u0663"], 1),  # an Arabic-Indic digit
        (["experiment", "thm1", "--n", "\u0663"], 2),
        (["oracle", "two-bridge", "\u0663,1"], 1),
        (["element", "parse", "x99999999999999999999"], 1),  # past the word size bound
        (["element", "parse", "x0^99999999999999999999"], 1),
        # past the word size bound before any element is built
        (["experiment", "thm1", "--n", "99999999999999999999"], 1),
        (["experiment", "thm1", "--n", "25000"], 1),  # 5 + 4 * 24999 leaves
        (["experiment", "thm2", "--gen", "x0", "--n", "99999999999999999999"], 1),
        (["experiment", "thm2", "--gen", "x1", "--n", "49999"], 1),  # past THM2_MAX_N
        (["link", "x1", "--route", "tait"], 2),  # no such option
        (["experiment", "thm2", "--gen", "x0", "--max-states", "5"], 2),  # no such option
        (["oracle", "two-bridge", "1,,1"], 1),  # an empty entry
    ],
)
def test_bad_input_fails_without_traceback(argv, status):
    proc = run_child(argv, text=True)
    assert proc.returncode == status
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_thm1_refuses_by_total_leaves():
    # x0^-2 has 4 leaves and its 24,999th wrap 99,996, inside the word
    # bound, but the rows would build 4n + 2n(n - 1) leaves in all
    n = 24999
    argv = ["experiment", "thm1", "--n", str(n), "--seed", "x0^-2"]
    proc = run_child(argv, text=True, timeout=30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert f"{4 * n + 2 * n * (n - 1)} leaves" in proc.stderr
    assert str(cli.THM1_LEAF_BUDGET) in proc.stderr


def test_thm1_budget_is_the_leaf_sum(capsys, monkeypatch):
    # element a has 5 leaves, so --n 3 builds 5 + 9 + 13 = 27 leaves
    monkeypatch.setattr(cli, "THM1_LEAF_BUDGET", 27)
    assert run(capsys, "experiment", "thm1", "--n", "3")[0] == 0
    code, out, err = run(capsys, "experiment", "thm1", "--n", "4")
    assert code == 1 and out == "" and "44 leaves" in err


def test_thm1_empty_seed_is_the_identity(capsys):
    # the empty word is how `element word` prints the identity
    empty = run(capsys, "experiment", "thm1", "--n", "3", "--seed", "", "--format", "json")
    spelled = run(capsys, "experiment", "thm1", "--n", "3", "--seed", "x0 x0^-1", "--format", "json")
    assert empty == spelled and empty[0] == 0
    data = json.loads(empty[1])
    assert data["seed_word"] == "" and data["rows"][0]["leaves"] == 1


def test_thm2_refuses_past_its_bound():
    # every row is a fixed family, so the run's work depends on n alone
    proc = run_child(["experiment", "thm2", "--gen", "x0", "--n", "49999"], text=True, timeout=30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert str(cli.THM2_MAX_N) in proc.stderr


def test_thm2_bound_is_on_n(capsys, monkeypatch):
    monkeypatch.setattr(cli, "THM2_MAX_N", 3)
    assert run(capsys, "experiment", "thm2", "--gen", "x1", "--n", "3")[0] == 0
    code, out, err = run(capsys, "experiment", "thm2", "--gen", "x1", "--n", "4")
    assert code == 1 and out == "" and "bound 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["element", "parse", "x5000"],
        ["link", "x5000", "--format", "json"],
        ["link", "x1200", "--format", "tait-svg"],
        ["element", "parse", "x1200", "--format", "svg"],
        ["link", "x1200", "--format", "svg"],
        ["conjugate", "x1500", "x2"],
        ["conjugate", "x5000", "x2"],
        ["conjugate", "x0^2000", "x0"],
    ],
)
def test_deep_trees_answer(argv):
    # x_k's source tree is k + 2 levels deep; x0^k has k + 2 leaves and the
    # abelianisation tells it from x0
    proc = run_child(argv, text=True)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    if argv[0] == "conjugate":
        verdict = "not conjugate" if argv[1].startswith("x0^") else "conjugate"
        assert proc.stdout == verdict + "\n"


_JUNK = ["x", "^", "-", " ", "\u0663", "{", "}", "[", '"', ",", ":", "y", ".", "\\"]
_SIZES = ["0", "-1", "", "abc", "1.5", "1e3", "\u0663", " 2", "1", "3"]


def _mutate(rng, text):
    """Insert, replace or delete up to three characters; never adds a digit
    or deletes a caret, so no number grows past the ones drawn."""
    chars = list(text)
    for _ in range(rng.randint(0, 3)):
        op, i = rng.randrange(3), rng.randrange(len(chars) + 1)
        if op == 0:
            chars.insert(i, rng.choice(_JUNK))
        elif i < len(chars) and chars[i] != "^":
            chars[i] = rng.choice(_JUNK) if op == 1 else ""
    return "".join(chars)


def _beyond(rng, value):
    """``value``, or now and then a number past the word size bound that
    stays past it when mutation deletes digits from it."""
    return rng.choice([10**9, -(10**9), 10**20]) if rng.random() < 0.03 else value


def _word(rng, max_index, max_exponent):
    tokens = [
        f"x{abs(_beyond(rng, rng.randint(0, max_index)))}^{_beyond(rng, rng.randint(-max_exponent, max_exponent))}"
        for _ in range(rng.randint(0, 3))
    ]
    return _mutate(rng, " ".join(tokens))


def _bits(rng):
    return "".join(rng.choice("01") for _ in range(rng.randint(0, 9)))


def _tree_json(rng):
    kinds = [_bits, _bits, _bits, lambda r: r.randint(-3, 3), lambda r: None, lambda r: [_bits(r)]]
    pair = {key: rng.choice(kinds)(rng) for key in ("source", "target") if rng.random() < 0.9}
    text = json.dumps(pair)
    roll = rng.random()
    if roll < 0.2:
        return text[: rng.randrange(len(text))]
    if roll < 0.25:  # json.loads recurses once per level
        return '{"source": ' + "[" * rng.choice([10, 100000])
    return _mutate(rng, text) if roll < 0.5 else text


def _element(rng, max_index, max_exponent):
    return _tree_json(rng) if rng.random() < 0.4 else _word(rng, max_index, max_exponent)


def _option(rng, valid, invalid):
    return rng.choice(valid) if rng.random() < 0.9 else invalid


def _fuzz_argv(rng):
    """One command line with malformed words, tree JSON and sizes; exponents
    stay at 1,000 or below (x0^k is a (k + 2)-leaf tree pair) unless they are
    drawn past the word size bound, and the elements that reach a link or
    bracket stay small."""
    fmt = ["--format", _option(rng, ["text", "json"], "xml")]
    commands = [
        ["element", rng.choice(["parse", "reduce", "inv", "word"]), _element(rng, 20, 1000)] + fmt,
        ["element", "mul", _element(rng, 20, 1000), _element(rng, 20, 1000)],
        ["conjugate", _element(rng, 20, 1000), _element(rng, 20, 1000)] + fmt,
        ["link", _element(rng, 4, 3), "--format", _option(rng, ["text", "json", "pd", "svg", "tait-svg"], "")],
        ["bracket", _element(rng, 4, 3), "--max-states", rng.choice(_SIZES + ["9" * 20])],
        ["experiment", "thm1", "--n", rng.choice(_SIZES), "--seed", _word(rng, 2, 1)] + fmt,
        ["experiment", "thm2", "--gen", _option(rng, ["x0", "x1"], "x2"), "--n", rng.choice(_SIZES)],
        ["oracle", "two-bridge", _mutate(rng, ",".join(str(rng.randint(-1, 4)) for _ in range(rng.randint(1, 3))))]
        + fmt,
    ]
    return rng.choice(commands)


def test_fuzzed_input_never_crashes(capsys):
    rng = Random(61)
    for _ in range(400):
        argv = _fuzz_argv(rng)
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # the test's boundary: name the input
            pytest.fail(f"{argv!r:.300} raised {exc!r}")
        err = capsys.readouterr().err
        assert status in (0, 1, 2), argv
        assert (status == 0) == ("error:" not in err), argv


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"source":"0"}', "target"),
        ('{"source": 1, "target": "0"}', "source"),
        ('{"target": "0"}', "source"),
        ('{"source": "0", "target": ["0"]}', "target"),
        ('{"source": "0", "target": null}', "target"),
    ],
)
def test_pair_json_errors_name_the_field(capsys, text, field):
    code, out, err = run(capsys, "element", "parse", text)
    assert code == 1 and out == ""
    assert f"needs a bitstring in '{field}'" in err, err


def test_error_lines_do_not_echo_whole_inputs(capsys):
    for text in ('{"source": ' + "[" * 100000, "x" + "y" * 100000, '{"source": "1' + "0" * 100000 + '", "target": "0"}'):
        assert main(["element", "parse", text]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse element ") and len(err) < 300, err[:300]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["nosuchverb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["element", "mul", "x0"])
    assert exc.value.code == 2


def test_byte_identical_runs():
    argv = ["experiment", "thm2", "--gen", "x0", "--n", "2", "--format", "json"]
    a = run_child(argv, cwd="/", check=True)
    b = run_child(argv, cwd="/", check=True)
    assert a.stdout == b.stdout and a.stdout
