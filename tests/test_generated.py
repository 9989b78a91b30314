"""Smoke tests of `jrom romize` on a class set from the benchmark's generator:
<clinit> chains and cross-class getstatic across packages, under --verify
and under the closed-world flags that rewrite field accesses.  Two more
tests check that the benchmark's spans still see every layer, and that one
traced pass of the benchmark harness on the corpus checks out.

The generator and the spans are loaded by path, since ``perfbench/`` is not
a package.  No time bound is set; timing belongs to the benchmark.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

from jrom import cli
from jrom import constpool as cp
from jrom import opcodes as ops
from jrom import romizer as rz

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def romize_argv(tmp_path, flags):
    """(class set, image path, romize argv) for 30 generated classes."""
    gen = load_perfbench("gen")
    class_set = gen.generate(30, 0)
    classes = tmp_path / "classes"
    gen.write(class_set.files, str(classes))
    image_path = tmp_path / "system.rom"
    return class_set, image_path, (["romize", "--classpath", str(classes),
                                    "--out", str(image_path)] + flags
                                   + sorted(class_set.files))


def romize_generated(tmp_path, capsys, flags):
    """Romize 30 generated classes; returns (class set, stdout, reloaded).

    The round trip re-emits under the flags the image's header holds.
    """
    class_set, image_path, argv = romize_argv(tmp_path, flags)
    rc = cli.main(argv)
    printed = capsys.readouterr()
    assert rc == 0, printed.err
    image = image_path.read_bytes()
    reloaded = rz.load_image(image)
    header = reloaded.image_flags
    assert (header.introspection, header.closed_world) == (
        "--no-introspection" not in flags, "--closed-world" in flags)
    assert rz.emit_image(reloaded.loadable(), header) == image
    return class_set, printed.out, reloaded


def test_romize_verify_generated_set(tmp_path, capsys):
    class_set, out, _ = romize_generated(tmp_path, capsys, ["--verify"])
    assert ("verified %d methods (0 skipped)" % class_set.methods_with_code
            in out), out


def test_romize_closed_world_generated_set(tmp_path, capsys):
    """The scale-build flags: closed-field rewriting, no --verify."""
    _, _, reloaded = romize_generated(tmp_path, capsys,
                                      ["--closed-world", "--no-introspection"])
    quick = {ops.BY_NAME["getfield_quick"], ops.BY_NAME["putfield_quick"]}
    assert any(op in quick for cls in reloaded.loadable()
               for m in cls.methods if m.code is not None
               for _, op, _ in ops.walk(m.code.bytecode))


def test_generated_set_is_pinned():
    """The generator, and the assembler under it, write these bytes: a
    digest of every (name, class file) pair, so a change to either that
    alters the benchmark's class sets shows here."""
    files = load_perfbench("gen").generate(200, 1).files
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name])
    assert (len(files), digest.hexdigest()) == (
        215, "229a03e4bbbbbff60a964e912b21b9b209afbcfeafc1f76a9033a74f610e977e")


def test_benchmark_spans_see_every_layer(tmp_path, capsys):
    """perfbench/spans.py wraps jrom functions by module attribute, so a
    renamed function, or one a caller bound with ``from ... import``, would
    leave its span silently at zero in the traced benchmark."""
    spans = load_perfbench("spans")
    _, image_path, argv = romize_argv(tmp_path, [])
    pack = cp.pack
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
        if rc == 0:
            rz.load_image(image_path.read_bytes())
    finally:
        tracer.uninstall()
    assert rc == 0, capsys.readouterr().err
    assert cp.pack is pack
    for name in ("classfile.parse", "constpool.prelink", "constpool.pack",
                 "lifecycle.load", "lifecycle.ready", "linker.link",
                 "romizer.emit", "romizer.report", "romizer.load_image"):
        assert tracer.calls[name] >= 1, name


def test_benchmark_harness_smoke():
    """One traced pass of corpus-verify: the harness's own output checks
    pass and the interpreter's counts repeat exactly.  It runs in its own
    process, since the harness patches Pipeline.build_report for good."""
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
         "corpus-verify", "--seconds", "0", "--trace", "1"],
        cwd=os.path.dirname(PERFBENCH), capture_output=True, text=True,
        timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["verify.instructions"] == 422_964
    assert metrics["verify.fuel_outs"] == 4
    assert metrics["verify.methods_checked"] == 168
