"""What a registry keeps once romize is done with a stage: the loaded pools
go before the image is emitted, the member records have no per-object
dict, a body without handlers shares the empty tuple, and equal names and
descriptors across classes are one string.  Only counts and identities are
checked; how much memory that saves belongs to the benchmark."""

import gc
import types

import pytest

from jrom import cli
from jrom import constpool as cp
from jrom import lifecycle as lc
from jrom import romizer as rz
from jrom import verify as vf
from jrom.errors import InvalidTransition
from jrom.pipeline import Pipeline

from .conftest import make_pipeline
from .test_generated import load_perfbench
from .test_linker import GOLDEN_FLAGS

RECORDS = (lc.FieldRep, lc.MethodRep, lc.MethodCode, cp.MemberHandle)
_EMPTY = ()
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.MethodType,
           types.BuiltinFunctionType, types.CodeType)


def reachable(root):
    """Every object reachable from ``root`` through data, not through
    modules, types or functions (whose globals reach everything)."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def _records(objects):
    return [obj for obj in objects if isinstance(obj, RECORDS)]


def test_romize_leaves_a_lean_registry(tmp_path, monkeypatch, capsys):
    gen = load_perfbench("gen")
    class_set = gen.generate(200, 1)
    classes = tmp_path / "classes"
    gen.write(class_set.files, str(classes))
    out = tmp_path / "system.rom"
    pipes = []
    build_report = Pipeline.build_report

    def recording(pipe, *args, **kwargs):
        pipes.append(pipe)
        return build_report(pipe, *args, **kwargs)
    monkeypatch.setattr(Pipeline, "build_report", recording)
    rc = cli.main(["romize", "--classpath", str(classes), "--out", str(out),
                   "--closed-world", "--no-introspection",
                   *sorted(class_set.files)])
    assert rc == 0, capsys.readouterr().err
    [pipe] = pipes
    linked = pipe.linked_classes()
    assert len(linked) > 200
    assert all(cls.loaded_pool is None for cls in linked)

    kept = reachable(pipe.registry)
    pools = [obj for obj in kept if isinstance(obj, cp.RuntimePool)]
    assert sorted(map(id, pools)) == sorted(id(cls.pool) for cls in linked)

    reloaded = rz.load_image(out.read_bytes())
    records = _records(kept) + _records(reachable(reloaded))
    assert {type(r) for r in records} == set(RECORDS)
    assert not [r for r in records if hasattr(r, "__dict__")]

    bodies = [code for cls in linked for m in cls.methods
              for code in (m.code_loaded, m.code) if code is not None]
    bodies += [m.code for cls in reloaded.loadable() for m in cls.methods
               if m.code is not None]
    assert len(bodies) > 2000
    assert all(code.exception_table is _EMPTY for code in bodies
               if not code.exception_table)


@pytest.mark.parametrize("flags", sorted(GOLDEN_FLAGS))
def test_release_keeps_output_and_ends_verify(corpus_dir, monkeypatch, flags):
    """The report and the image read nothing that the release drops; a
    differential check after it is refused before any method runs."""
    pipe = make_pipeline(corpus_dir, **GOLDEN_FLAGS[flags])
    report, image = pipe.build_report().to_table(), pipe.emit_image()
    pipe.release_loaded()
    assert pipe.build_report().to_table() == report
    assert pipe.emit_image() == image

    def run_method(*args, **kwargs):
        raise AssertionError("verify_all ran a method after the release")
    monkeypatch.setattr(vf, "run_method", run_method)
    with pytest.raises(InvalidTransition):
        pipe.verify_all()


def test_equal_names_across_classes_are_one_str(corpus_dir):
    """A method descriptor, or a loaded pool's Utf8 text, is the same str
    object in every corpus class that names it."""
    pipe = Pipeline([corpus_dir])
    classes = pipe.load_targets(["corpus/app/Driver"], closure=True)

    def owners_and_ids(texts):
        found = {}      # text -> (classes naming it, ids of its str objects)
        for cls, text in texts:
            names, ids = found.setdefault(text, (set(), set()))
            names.add(cls.name)
            ids.add(id(text))
        return found.values()

    for texts in ([(cls, m.descriptor) for cls in classes for m in cls.methods],
                  [(cls, text) for cls in classes for kind, text in zip(
                      cls.loaded_pool.a_kind, cls.loaded_pool.a_payload)
                   if kind == cp.A_UTF8]):
        found = owners_and_ids(texts)
        assert any(len(names) > 1 for names, _ in found)
        assert all(len(ids) == 1 for _, ids in found)
