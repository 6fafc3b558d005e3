"""``python -m repro.testing.digest``: program identity as a command.

A digest line must be a fact about the program alone, so a change that
leaves every program byte-identical digests identically — whatever the
state of the native build directory — and ``--against`` names the
first field that moved.
"""

import pytest

import repro.testing.digest as digest_module
from repro.codegen.c_backend import have_c_toolchain
from repro.optim import CompilerOptions
from repro.testing.digest import (
    FIELDS,
    configurations,
    digest,
    first_difference,
    ledger_net,
    main,
)


def test_the_configurations_are_the_ladder_noplan_and_native():
    labels = [label for label, _, _ in configurations()]
    assert len(labels) == len(set(labels)) == 18
    assert [label for label, _, _ in configurations("c")] == [
        "O4-train-c-t1", "O4-train-c-t2",
        "O4-inference-c-t1", "O4-inference-c-t2"]


@pytest.mark.skipif(not have_c_toolchain(), reason="no C toolchain")
def test_a_native_compile_digests_alike_cold_and_warm(tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("REPRO_CBUILD_DIR", str(tmp_path))
    facts, hits = [], []
    for _ in range(2):
        cnet = ledger_net("lenet").init(CompilerOptions(backend="c"),
                                        num_threads=1)
        facts.append(digest(cnet))
        hits.append(cnet.compile_report["codegen-c"].env["build_dir_hit"])
        cnet.close()
    assert hits == [0, 1]
    assert facts[0] == facts[1]
    assert facts[0]["py"] == "0"  # the loss is native too


def test_py_counts_the_steps_the_native_program_leaves_in_python():
    """On NumPy ``py`` counts the steps that the emission behind ``c``
    binds to no kernel: inception_b's concat, forward and backward."""
    cnet = ledger_net("inception_b").init(CompilerOptions())
    facts = digest(cnet)
    python = [s.label for s in cnet.compiled.steps if ".extern" in s.label]
    assert python and facts["py"] == str(len(python))
    assert digest(ledger_net("mlp").init(CompilerOptions()))["py"] == "0"


def test_against_names_the_first_field_that_differs():
    line = "vgg O4-train " + " ".join(f"{f}=1" for f in FIELDS)
    moved = line.replace("c=1", "c=2").replace("planned=1", "planned=2")
    assert first_difference([line], [line]) is None
    assert first_difference([moved], [line]) == "vgg O4-train: c differs"
    assert first_difference([line], []) == (
        "vgg O4-train: not in the saved run")
    # a NumPy line's work counter: checked where the saved line has one
    counted = line + " ops=7"
    assert first_difference([counted], [line]) is None
    assert first_difference([counted], [line + " ops=8"]) == (
        "vgg O4-train: ops differs")
    # and its Python-step counter, the same way
    assert first_difference([line + " py=1"], [line]) is None
    assert first_difference([line + " py=1"], [line + " py=0"]) == (
        "vgg O4-train: py differs")


def test_the_command_checks_a_saved_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(digest_module, "PROGRAMS", ("mlp", "cnn_b"))
    saved = tmp_path / "run.txt"
    assert main(["--backend", "numpy"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * 14
    saved.write_text("\n".join(lines))
    assert main(["--backend", "numpy", "--against", str(saved)]) == 0
    assert "28 compiles match" in capsys.readouterr().err
    saved.write_text("\n".join(
        lines[:1] + [lines[1].replace("source=", "source=0")] + lines[2:]))
    assert main(["--backend", "numpy", "--against", str(saved)]) == 1
    assert f"DIFFERS {' '.join(lines[1].split()[:2])}: source differs" in (
        capsys.readouterr().err)


def test_the_command_rejects_an_arena_layout(capsys, monkeypatch):
    """Every digested compile goes through the static arena check: two
    buffers live at once on the same bytes end the run, naming the
    compile and the pair."""
    from repro.testing.oracle import inject_bug

    monkeypatch.setattr(digest_module, "PROGRAMS", ("cnn_b",))
    with inject_bug("arena-overlap"):
        assert main(["--backend", "numpy"]) == 1
    out = capsys.readouterr()
    # O0..O2 plan no arena: their lines print, the first planned one fails
    assert len(out.out.splitlines()) == 6
    assert out.err.startswith("ARENA cnn_b O3-train: ")
    assert "share bytes while both are live" in out.err
