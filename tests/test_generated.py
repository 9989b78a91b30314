"""Smoke test of `jrom romize --verify` on a class set from the benchmark's
generator: <clinit> chains and cross-class getstatic across packages.

The generator is loaded by path, since ``perfbench/`` is not a package.
No time bound is set; timing belongs to the benchmark.
"""

import importlib.util
import os

from jrom import cli
from jrom import romizer as rz

GEN_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "gen.py")


def load_generator():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_romize_verify_generated_set(tmp_path, capsys):
    gen = load_generator()
    class_set = gen.generate(30, 0)
    classes = tmp_path / "classes"
    gen.write(class_set.files, str(classes))
    image_path = tmp_path / "system.rom"
    rc = cli.main(["romize", "--classpath", str(classes),
                   "--out", str(image_path), "--verify"]
                  + sorted(class_set.files))
    printed = capsys.readouterr()
    assert rc == 0, printed.err
    assert ("verified %d methods (0 skipped)" % class_set.methods_with_code
            in printed.out), printed.out
    image = image_path.read_bytes()
    reloaded = rz.load_image(image)
    assert rz.emit_image(reloaded.loadable()) == image
