"""Smoke tests of `jrom romize` on a class set from the benchmark's generator:
<clinit> chains and cross-class getstatic across packages, under --verify
and under the closed-world flags that rewrite field accesses.  One more
test checks that the benchmark's spans still see every layer.

The generator and the spans are loaded by path, since ``perfbench/`` is not
a package.  No time bound is set; timing belongs to the benchmark.
"""

import importlib.util
import os

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


def test_benchmark_spans_see_every_layer(tmp_path, capsys):
    """perfbench/spans.py wraps jrom functions by module attribute, so a
    renamed function, or one a caller bound with ``from ... import``, would
    leave its span silently at zero in the traced benchmark."""
    spans = load_perfbench("spans")
    _, _, argv = romize_argv(tmp_path, [])
    pack = cp.pack
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
    assert rc == 0, capsys.readouterr().err
    assert cp.pack is pack
    for name in ("classfile.parse", "constpool.prelink", "constpool.pack",
                 "lifecycle.load", "lifecycle.ready", "linker.link",
                 "romizer.emit", "romizer.report"):
        assert tracer.calls[name] >= 1, name
