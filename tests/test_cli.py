import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import thomplink
from thomplink.cli import main


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
    code, out, _ = run(capsys, "link", "x0", "--route", "tait", "--format", "svg")
    assert out.startswith("<svg")


def test_bracket_command(capsys):
    code, out, _ = run(capsys, "bracket", "x0")
    assert code == 0 and out.strip() == "1*A^0"
    code, out, _ = run(capsys, "bracket", "x0", "--route", "tait", "--format", "json")
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


def test_oracle_two_bridge(capsys):
    code, out, _ = run(capsys, "oracle", "two-bridge", "1,1", "--format", "json")
    data = json.loads(out)
    assert data["fraction"] == [2, 1]
    assert data["components"] == 2
    assert data["bracket"] == "-1*A^4 + -1*A^-4"


def test_domain_errors_exit_1(capsys):
    assert run(capsys, "element", "parse", "xq")[0] == 1
    assert run(capsys, "bracket", "x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12", "--no-simplify", "--max-states", "1")[0] == 1
    assert run(capsys, "oracle", "two-bridge", "0,1")[0] == 1


@pytest.mark.parametrize(
    "argv, status",
    [
        (["experiment", "thm1", "--n", "0"], 2),
        (["element", "parse", '{"source":5,"target":"0"}'], 1),
        (["experiment", "thm2", "--gen", "x0", "--n", "-1"], 2),
        (["bracket", "x0", "--max-states", "-1"], 2),
        (["oracle", "two-bridge", "1,1", "--max-crossings", "-3"], 2),
        (["oracle", "two-bridge", "1,1", "--max-crossings", "0"], 2),
        (["element", "parse", "x\u0663"], 1),  # an Arabic-Indic digit
        (["experiment", "thm1", "--n", "\u0663"], 2),
        (["oracle", "two-bridge", "\u0663,1"], 1),
        (["element", "parse", "x99999999999999999999"], 1),  # past the word size bound
        (["element", "parse", "x0^99999999999999999999"], 1),
    ],
)
def test_bad_input_fails_without_traceback(argv, status):
    proc = run_child(argv, text=True)
    assert proc.returncode == status
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["element", "parse", "x5000"],
        ["link", "x5000", "--format", "json"],
        ["link", "x2000", "--route", "tait", "--format", "json"],
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
        ["link", _element(rng, 4, 3), "--route", _option(rng, ["tait", "direct"], "x"),
         "--format", _option(rng, ["text", "json", "pd", "svg"], "")],
        ["bracket", _element(rng, 4, 3), "--max-states", rng.choice(_SIZES + ["9" * 20])],
        ["experiment", "thm1", "--n", rng.choice(_SIZES), "--seed", _word(rng, 2, 1)] + fmt,
        ["experiment", "thm2", "--gen", _option(rng, ["x0", "x1"], "x2"), "--n", rng.choice(_SIZES)],
        ["oracle", "two-bridge", _mutate(rng, ",".join(str(rng.randint(-1, 4)) for _ in range(rng.randint(1, 3)))),
         "--max-crossings", rng.choice(_SIZES)] + fmt,
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
