"""Romizer tests: stats, image determinism, round trips, reports."""

import hashlib
import json

import pytest

from jrom import classfile as cf
from jrom import cli
from jrom import lifecycle as lc
from jrom import romizer as rz
from jrom.errors import (BadImageMagic, Corrupt, IncompleteClosure, NotLinked,
                         StageNotReached, VersionMismatch)
from jrom.pipeline import Pipeline

from .conftest import make_pipeline, raw_pool_byte_size
from .corpus import build_corpus, corpus_names


@pytest.fixture(scope="module")
def image(linked_pipeline):
    return linked_pipeline.emit_image()


class TestSnapshotStats:
    def test_unloaded_delegates_to_parser_stats(self, linked_pipeline):
        for name, (data, _) in build_corpus().items():
            cls = linked_pipeline.registry.get(name)
            raw = cf.parse_class(data)
            stats = rz.snapshot_stats(cls, "unloaded")
            assert stats.entries == cf.pool_entry_count(raw)
            assert stats.pool_bytes == raw_pool_byte_size(raw)
            assert stats.class_bytes == len(data)

    def test_monotone_across_stages(self, linked_pipeline):
        for cls in linked_pipeline.registry.loadable():
            u = rz.snapshot_stats(cls, "unloaded")
            lo = rz.snapshot_stats(cls, lc.LOADED)
            ln = rz.snapshot_stats(cls, lc.LINKED)
            assert ln.entries <= lo.entries <= u.entries, cls.name
            assert ln.pool_bytes <= lo.pool_bytes, cls.name

    def test_stage_not_reached(self):
        cls = lc.ClassRep("ghost")
        with pytest.raises(StageNotReached):
            rz.snapshot_stats(cls, "unloaded")
        with pytest.raises(StageNotReached):
            rz.snapshot_stats(cls, lc.LINKED)

    def test_introspection_costs_bytes_at_linked(self, linked_pipeline,
                                                 nointro_pipeline):
        with_intro = rz.snapshot_stats(
            linked_pipeline.registry.get("corpus/Arith"), lc.LINKED)
        without = rz.snapshot_stats(
            nointro_pipeline.registry.get("corpus/Arith"), lc.LINKED)
        assert without.pool_bytes < with_intro.pool_bytes


class TestEmit:
    def test_emit_twice_identical(self, linked_pipeline, image):
        assert linked_pipeline.emit_image() == image

    def test_input_order_does_not_matter(self, linked_pipeline):
        classes = linked_pipeline.linked_classes()
        a = rz.emit_image(classes, linked_pipeline.ctx)
        b = rz.emit_image(list(reversed(classes)), linked_pipeline.ctx)
        assert a == b

    def test_incomplete_closure_names_missing(self, linked_pipeline):
        classes = [c for c in linked_pipeline.linked_classes()
                   if c.name != "corpus/shapes/Shape"]
        with pytest.raises(IncompleteClosure) as err:
            rz.emit_image(classes, linked_pipeline.ctx)
        assert "corpus/shapes/Shape" in err.value.missing

    def test_not_linked_rejected(self, corpus_dir):
        pipe = Pipeline([corpus_dir])
        pipe.load_targets(["corpus/Empty"], closure=True)
        with pytest.raises(NotLinked):
            rz.emit_image(pipe.registry.loadable(), pipe.ctx)

    # sha256 of the corpus image and its report under each flag set
    GOLDEN = {
        (): ("836498ad3e267856d5964ad8e7d3cc89a680073e5a69a60be80ebc0b07bdb0bc",
             "4f8c37f75fc2808993ee54b851b18c0faec313382d02553c5fba5e42b8e6d3b5"),
        ("--no-introspection",): (
            "6ed59e238d0edb25bb80ee3571a66673509dbc160f9d9c0d7ba10ffb2b4acba4",
            "694cef060cf5b9ccb9302a356a84cd0b32b4bac810e81017469a18823cd11b97"),
        ("--private-field-opt",): (
            "21e19cdded7b88afc35616fd0b6aa86725812db714eb8b4e75916366802d5bcb",
            "37ae0f02c9f8de63ee50599213efb1d3c8b021ef2c6a053d04114fefb8a1a796"),
        ("--closed-world",): (
            "3ff765b08b8af01f5e9cea9a01c053841f340a142cfd179f10e6ab9839063055",
            "15b2f43369a005c3fe759861b9d1f7bead8927412d8016a64faf2bbc618ce9ca"),
    }

    @pytest.mark.parametrize("flags", sorted(GOLDEN),
                             ids=lambda flags: "-".join(flags) or "default")
    def test_golden_image_and_report(self, corpus_dir, tmp_path, flags):
        out = str(tmp_path / "corpus.rom")
        assert cli.main(["romize", "--classpath", corpus_dir, "--out", out,
                         *flags, *corpus_names()]) == 0
        digests = tuple(hashlib.sha256(open(path, "rb").read()).hexdigest()
                        for path in (out, out + ".report.txt"))
        assert digests == self.GOLDEN[flags]


class TestLoadImage:
    def test_round_trip_emit_is_identical(self, linked_pipeline, image):
        reg2 = rz.load_image(image)
        classes = sorted(reg2.loadable(), key=lambda c: c.name)
        assert rz.emit_image(classes, linked_pipeline.ctx) == image

    def test_reloaded_classes_are_linked_and_ready(self, image):
        reg2 = rz.load_image(image)
        for cls in reg2.loadable():
            assert cls.state == lc.LINKED
            assert cls.ready

    def test_reloaded_stats_match_originals(self, linked_pipeline, image):
        reg2 = rz.load_image(image)
        for cls in linked_pipeline.registry.loadable():
            redone = reg2.get(cls.name)
            a = rz.snapshot_stats(cls, lc.LINKED)
            b = rz.snapshot_stats(redone, lc.LINKED)
            assert (a.entries, a.pool_bytes, a.class_bytes) == \
                (b.entries, b.pool_bytes, b.class_bytes)
            u1 = rz.snapshot_stats(cls, "unloaded")
            u2 = rz.snapshot_stats(redone, "unloaded")
            assert (u1.entries, u1.pool_bytes) == (u2.entries, u2.pool_bytes)

    def test_reloaded_dispatch_tables_equal(self, linked_pipeline, image):
        reg2 = rz.load_image(image)
        for cls in linked_pipeline.registry.loadable():
            redone = reg2.get(cls.name)
            assert [(m.owner.name, m.name, m.descriptor)
                    for m in cls.dispatch_table] == \
                [(m.owner.name, m.name, m.descriptor)
                 for m in redone.dispatch_table]

    def test_reloaded_zones_equal(self, linked_pipeline, image):
        reg2 = rz.load_image(image)
        for cls in linked_pipeline.registry.loadable():
            redone = reg2.get(cls.name)
            assert cls.a_static_zone == redone.a_static_zone
            assert cls.v_static_zone == redone.v_static_zone

    def test_truncated_image_reports_offset(self, image):
        with pytest.raises(Corrupt) as err:
            rz.load_image(image[:len(image) // 2])
        assert err.value.offset <= len(image) // 2

    def test_version_flip(self, image):
        data = bytearray(image)
        data[4] ^= 0xFF
        with pytest.raises(VersionMismatch):
            rz.load_image(bytes(data))

    def test_bad_magic(self, image):
        with pytest.raises(BadImageMagic):
            rz.load_image(b"NOPE" + image[4:])

    def test_trailing_bytes_rejected(self, image):
        with pytest.raises(Corrupt):
            rz.load_image(image + b"\x00")

    def test_header_flags_kept(self, corpus_dir):
        pipe = make_pipeline(corpus_dir, introspection=False,
                             private_field_opt=True,
                             closed_packages={"corpus/sealed", "vm"})
        image = pipe.emit_image()
        reloaded = rz.load_image(image)
        header = reloaded.image_flags
        assert (header.introspection, header.private_field_opt,
                header.closed_world, header.closed_packages) == \
            (False, True, False, {"corpus/sealed", "vm"})
        assert rz.emit_image(reloaded.loadable(), header) == image

    def test_superclass_missing_from_image_is_corrupt(self, linked_pipeline):
        # a synthetic superclass reference naming a class that is neither
        # synthetic nor in the image
        cls = linked_pipeline.registry.get("corpus/Empty")
        saved = cls.super_cls
        cls.super_cls = lc.ClassRep("<init>", synthetic=True)
        try:
            data = linked_pipeline.emit_image()
        finally:
            cls.super_cls = saved
        with pytest.raises(Corrupt) as err:
            rz.load_image(data)
        assert "<init>" in str(err.value)

    def test_catch_type_past_the_atable_is_corrupt(self, corpus_dir):
        pipe = make_pipeline(corpus_dir)
        typed = 0
        for cls in pipe.registry.loadable():
            for m in cls.methods:
                if m.code is None:
                    continue
                typed += sum(c is not None
                             for _, _, _, c in m.code.exception_table)
                m.code.exception_table = [
                    (s, e, h, None if c is None else 999)
                    for s, e, h, c in m.code.exception_table]
        assert typed > 0
        with pytest.raises(Corrupt, match="catch type 999"):
            rz.load_image(pipe.emit_image())


class TestImageFuzz:
    def test_random_flips_fail_cleanly(self, image):
        import random
        from jrom.errors import JromError
        rng = random.Random(0xA5)
        for _ in range(400):
            data = bytearray(image)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            try:
                rz.load_image(bytes(data))
            except JromError:
                pass

    def test_every_truncation_fails_cleanly(self, image):
        from jrom.errors import JromError
        for cut in range(len(image)):
            with pytest.raises(JromError):
                rz.load_image(image[:cut])
        with pytest.raises(Corrupt, match=r"^truncated class count "
                                          r"\(at image offset 8\)$"):
            rz.load_image(image[:10])


class TestCArray:
    def test_renders_every_byte(self):
        text = rz.emit_c_array(bytes([1, 2, 3]), "blob")
        assert "0x01, 0x02, 0x03" in text
        assert "blob[3]" in text
        assert "blob_len = 3UL" in text

    def test_reparsing_literals_recovers_bytes(self, image):
        text = rz.emit_c_array(image[:64], "rom")
        inside = text[text.index("{") + 1:text.index("}")]
        parsed = bytes(int(tok, 16) for tok in inside.replace(",", " ").split())
        assert parsed == image[:64]


class TestReport:
    def test_percentages_recompute_from_counts(self, linked_pipeline):
        report = linked_pipeline.build_report()
        table = report.to_table()
        base = report.aggregate("unloaded")
        linked = report.aggregate(lc.LINKED)
        want = "%7.2f%%" % (100.0 * linked.entries / base.entries)
        assert want.strip() in table

    def test_aggregate_is_sum_of_classes(self, linked_pipeline):
        report = linked_pipeline.build_report()
        agg = report.aggregate(lc.LINKED)
        total = sum(c.stages[lc.LINKED].entries for c in report.classes
                    if c.stages[lc.LINKED])
        assert agg.entries == total

    def test_records_are_json_lines(self, linked_pipeline):
        report = linked_pipeline.build_report()
        lines = [json.loads(line) for line in
                 report.to_records().strip().splitlines()]
        classes = {r["class"] for r in lines if "class" in r}
        assert set(corpus_names()) <= classes
        aggregates = [r for r in lines if "aggregate" in r]
        assert {a["aggregate"] for a in aggregates} == \
            {"unloaded", lc.LOADED, lc.LINKED}

    def test_table_documents_model_and_flags(self, linked_pipeline):
        table = linked_pipeline.build_report().to_table()
        assert "model:" in table
        assert "introspection=on" in table

    def test_rows_in_name_order_whatever_the_adding_order(self,
                                                          linked_pipeline):
        classes = linked_pipeline.registry.loadable()
        names = sorted(c.name for c in classes)
        shuffled = sorted(classes, key=lambda c: (len(c.name), c.name[::-1]))
        assert [c.name for c in shuffled] != names
        report = rz.FootprintReport("test")
        for cls in shuffled:
            report.add_class(cls)
        # equal names keep the order they were added in
        report.add_class(shuffled[0], error="second")
        report.add_class(shuffled[0], error="third")
        rows = report.to_table().splitlines()
        first = rows.index(next(r for r in rows if r.startswith("-"))) + 1
        table_names = [r.split()[0] for r in rows[first:first + len(names) + 2]]
        want = sorted(names + [shuffled[0].name] * 2)
        assert table_names == want
        records = [json.loads(line)
                   for line in report.to_records().splitlines()[1:]]
        record_names = [r["class"] for r in records if "class" in r]
        assert record_names == sorted(record_names)
        errors = [r["error"] for r in records
                  if r.get("class") == shuffled[0].name and "error" in r]
        assert errors == ["second", "third"]
