"""Parser tests: builder-manifest oracle, error paths, fuzz safety."""

import re
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jrom import classfile as cf
from jrom import descriptors as dsc
from jrom import lifecycle as lc
from jrom.errors import (BadIndex, BadMagic, BadUtf8, ClassFileError,
                         Truncated, UnsupportedVersion)
from jrom.pipeline import Pipeline

from .assembler import ClassBuilder
from .conftest import raw_pool_byte_size, serialize_constant
from .corpus import build_corpus


def _empty_class_bytes():
    return build_corpus()["corpus/Empty"][0]


class TestParseCorpus:
    def test_every_corpus_class_parses(self, corpus):
        for name, (data, cb) in corpus.items():
            raw = cf.parse_class(data)
            assert raw.name == name

    def test_names_against_builder(self, corpus):
        for name, (data, cb) in corpus.items():
            raw = cf.parse_class(data)
            assert raw.super_name == cb.super_name
            assert [m.name for m in raw.methods] == [m[1] for m in cb.methods]
            assert [m.descriptor for m in raw.methods] == [m[2] for m in cb.methods]
            assert [f.name for f in raw.fields] == [f[1] for f in cb.fields]

    def test_pool_count_matches_builder(self, corpus):
        # the builder counted what it wrote; the parser must agree
        for name, (data, cb) in corpus.items():
            raw = cf.parse_class(data)
            assert cf.pool_entry_count(raw) == cb.pool.entry_count(), name

    def test_pool_bytes_match_builder(self, corpus):
        for name, (data, cb) in corpus.items():
            raw = cf.parse_class(data)
            assert raw_pool_byte_size(raw) == cb.pool.byte_size(), name

    def test_pool_bytes_match_file_offsets(self, corpus):
        # the measured region in the actual file is the independent check
        for name, (data, _) in corpus.items():
            raw = cf.parse_class(data)
            assert raw_pool_byte_size(raw) == raw.pool_end - raw.pool_entries_start

    def test_empty_resolves_names(self):
        raw = cf.parse_class(_empty_class_bytes())
        assert raw.name == "corpus/Empty"
        assert raw.super_name == "java/lang/Object"

    def test_every_index_survives_validation(self, corpus):
        # _validate already ran; spot-check a few catch types and members
        for name, (data, _) in corpus.items():
            raw = cf.parse_class(data)
            for m in raw.methods:
                code = m.attr("Code")
                if code is None:
                    continue
                for *_, catch in code.code.exception_table:
                    if catch:
                        raw.constant(catch, cf.TAG_CLASS)


class TestParseErrors:
    def test_three_bytes_truncated(self):
        with pytest.raises(Truncated):
            cf.parse_class(b"\xca\xfe\xba")

    def test_zeroed_magic(self):
        data = bytearray(_empty_class_bytes())
        data[0:4] = b"\x00\x00\x00\x00"
        with pytest.raises(BadMagic):
            cf.parse_class(bytes(data))

    def test_major_above_49_rejected(self):
        data = bytearray(_empty_class_bytes())
        struct.pack_into(">H", data, 6, 50)
        with pytest.raises(UnsupportedVersion):
            cf.parse_class(bytes(data))

    def test_major_49_accepted(self):
        cb = ClassBuilder("P", major=49)
        cb.default_init()
        assert cf.parse_class(cb.build()).major_version == 49

    def test_truncated_mid_pool(self):
        data = _empty_class_bytes()
        with pytest.raises(Truncated):
            cf.parse_class(data[:14])

    def test_every_strict_prefix_raises(self, corpus):
        for name, (data, _) in corpus.items():
            for cut in range(len(data)):
                with pytest.raises(ClassFileError):
                    cf.parse_class(data[:cut])
        with pytest.raises(Truncated,
                           match="^input ends inside constant pool count$"):
            cf.parse_class(_empty_class_bytes()[:9])

    def test_trailing_garbage(self):
        with pytest.raises(Truncated):
            cf.parse_class(_empty_class_bytes() + b"\x00")

    def test_bad_utf8(self):
        data = bytearray(_empty_class_bytes())
        raw = cf.parse_class(bytes(data))
        # corrupt the first utf8 constant's first byte to 0xFF
        offset = raw.pool_entries_start
        assert data[offset] == cf.TAG_UTF8
        data[offset + 3] = 0xFF
        with pytest.raises(BadUtf8):
            cf.parse_class(bytes(data))

    def test_this_class_wrong_tag(self):
        cb = ClassBuilder("Q")
        cb.default_init()
        data = bytearray(cb.build())
        raw = cf.parse_class(bytes(data))
        # point this_class at a Utf8 slot
        utf8_idx = next(i for i, c in enumerate(raw.raw_pool)
                        if c.tag == cf.TAG_UTF8)
        struct.pack_into(">H", data, raw.pool_end + 2, utf8_idx)
        with pytest.raises(BadIndex):
            cf.parse_class(bytes(data))


class TestDescriptorErrors:
    """Descriptors come from class files and images: bad ones must raise
    ClassFileError, not a Python error."""

    def test_type_code_empty(self):
        with pytest.raises(ClassFileError):
            dsc.type_code("")

    def test_slot_width_empty(self):
        with pytest.raises(ClassFileError):
            dsc.slot_width("")

    def test_method_descriptor_without_return(self):
        with pytest.raises(ClassFileError):
            dsc.parse_method_descriptor("()")

    @pytest.mark.parametrize("desc", ["(", "([)V", "()[", "(L)V", "()VV"])
    def test_truncated_method_descriptors(self, desc):
        # parsed descriptors are kept; a bad one must raise every time
        for _ in range(2):
            with pytest.raises(ClassFileError):
                dsc.parse_method_descriptor(desc)
            with pytest.raises(ClassFileError):
                dsc.arg_slots(desc, include_receiver=False)


class TestMethodDescriptors:
    def test_parse_and_slots(self):
        for _ in range(2):
            assert dsc.parse_method_descriptor("(IJ[Ljava/lang/String;D)V") \
                == (("I", "J", "[Ljava/lang/String;", "D"), "V")
            assert dsc.arg_slots("(IJ[Ljava/lang/String;D)V", False) == 6
            assert dsc.arg_slots("(IJ[Ljava/lang/String;D)V", True) == 7

    def test_kept_parameters_cannot_be_changed_by_a_caller(self):
        params, _ = dsc.parse_method_descriptor("(II)I")
        with pytest.raises((TypeError, AttributeError)):
            params.append("J")
        assert dsc.parse_method_descriptor("(II)I") == (("I", "I"), "I")
        assert dsc.arg_slots("(II)I", include_receiver=False) == 2


class TestModifiedUtf8:
    def test_assembler_writes_astral_text_as_surrogate_pair(self, corpus_dir,
                                                            tmp_path):
        name = "p/X\U0001f600"
        cb = ClassBuilder(name)
        cb.default_init()
        data = cb.build()
        assert cf.encode_mutf8(name) in data
        assert cf.parse_class(data).name == name
        (tmp_path / "p").mkdir()
        (tmp_path / (name + ".class")).write_bytes(data)
        pipe = Pipeline([str(tmp_path), corpus_dir])
        pipe.load_targets([name], closure=True)
        assert pipe.registry.get(name).state == lc.LOADED

    def test_round_trip_ascii(self):
        assert cf.decode_mutf8(cf.encode_mutf8("hello/World$1")) == "hello/World$1"

    def test_two_byte_nul(self):
        assert cf.decode_mutf8(b"\xc0\x80") == "\x00"

    def test_three_byte(self):
        text = "€Ж"
        assert cf.decode_mutf8(cf.encode_mutf8(text)) == text

    def test_raw_nul_rejected(self):
        with pytest.raises(BadUtf8):
            cf.decode_mutf8(b"\x00")

    def test_four_byte_form_rejected(self):
        with pytest.raises(BadUtf8):
            cf.decode_mutf8(b"\xf0\x90\x80\x80")

    def test_truncated_sequence(self):
        with pytest.raises(BadUtf8):
            cf.decode_mutf8(b"\xc3")

    # a high surrogate followed by a low one encodes an astral character,
    # so such a pair decodes to that character, not to itself
    @given(st.text(st.characters(exclude_categories=())).filter(
        lambda t: not re.search("[\ud800-\udbff][\udc00-\udfff]", t)))
    @example("\0")
    @example("a\ud800b\udfff")
    @example("\U0001f600\0x")
    def test_round_trip_any_text(self, text):
        assert cf.decode_mutf8(cf.encode_mutf8(text)) == text

    @given(st.binary(max_size=40), st.integers(min_value=0, max_value=40))
    def test_ascii_with_nul_rejected(self, data, at):
        ascii_bytes = bytes(b & 0x7F for b in data)
        with pytest.raises(BadUtf8):
            cf.decode_mutf8(ascii_bytes[:at] + b"\0" + ascii_bytes[at:])


class TestStats:
    def test_minimal_pool_is_empty(self):
        raw = cf.RawClassFile(0, 48, [cf.RawConstant(cf.TAG_PLACEHOLDER)],
                              0, 0, 0, [], [], [], [])
        assert cf.pool_entry_count(raw) == 0

    def test_placeholder_excluded(self):
        pool = [cf.RawConstant(cf.TAG_PLACEHOLDER),
                cf.RawConstant(cf.TAG_LONG, 5),
                cf.RawConstant(cf.TAG_PLACEHOLDER),
                cf.RawConstant(cf.TAG_UTF8, b"x", "x")]
        raw = cf.RawClassFile(0, 48, pool, 0, 0, 0, [], [], [], [])
        assert cf.pool_entry_count(raw) == 2

    def test_integer_is_five_bytes(self):
        pool = [cf.RawConstant(cf.TAG_PLACEHOLDER),
                cf.RawConstant(cf.TAG_INTEGER, 1)]
        raw = cf.RawClassFile(0, 48, pool, 0, 0, 0, [], [], [], [])
        assert raw_pool_byte_size(raw) == 5

    def test_utf8_ab_is_five_bytes(self):
        pool = [cf.RawConstant(cf.TAG_PLACEHOLDER),
                cf.RawConstant(cf.TAG_UTF8, b"AB", "AB")]
        raw = cf.RawClassFile(0, 48, pool, 0, 0, 0, [], [], [], [])
        assert raw_pool_byte_size(raw) == 5


class TestRetention:
    def test_debug_attributes_dropped_with_length(self, corpus):
        data, _ = corpus["corpus/Arith"]
        raw = cf.parse_class(data)
        dropped = [a for m in raw.methods for a in m.attr("Code").code.attributes
                   if not a.retained]
        assert dropped, "corpus should carry debug attributes"
        assert all(a.payload == b"" and a.orig_len > 0 for a in dropped)
        names = {a.name for a in dropped}
        assert "LineNumberTable" in names
        assert "LocalVariableTable" in names

    def test_source_file_dropped(self, corpus):
        raw = cf.parse_class(corpus["corpus/Empty"][0])
        attr = [a for a in raw.attributes if a.name == "SourceFile"]
        assert attr and not attr[0].retained

    def test_stack_map_retained(self, corpus):
        raw = cf.parse_class(corpus["corpus/Mapped"][0])
        branchy = next(m for m in raw.methods if m.name == "branchy")
        maps = [a for a in branchy.attr("Code").code.attributes if a.retained]
        assert maps and maps[0].name == "StackMapTable"
        assert maps[0].payload == bytes([0, 1, 0, 7])

    def test_constant_value_retained(self, corpus):
        raw = cf.parse_class(corpus["corpus/Statics"][0])
        f = next(f for f in raw.fields if f.name == "sInt")
        assert cf.constant_value_of(raw, f) == ("i", 7)
        f = next(f for f in raw.fields if f.name == "sRef")
        assert cf.constant_value_of(raw, f) == ("s", "init")


class TestRoundTrip:
    def test_pool_reserializes_exactly(self, corpus):
        for name, (data, _) in corpus.items():
            raw = cf.parse_class(data)
            encoded = b"".join(serialize_constant(c) for c in raw.raw_pool)
            assert encoded == data[raw.pool_entries_start:raw.pool_end], name

    def test_code_bytes_are_verbatim(self, corpus):
        for name, (data, _) in corpus.items():
            raw = cf.parse_class(data)
            for m in raw.methods:
                attr = m.attr("Code")
                if attr is None:
                    continue
                code = attr.code
                start = code.code_offset
                assert data[start:start + len(code.code)] == code.code


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.binary(max_size=600))
def test_fuzz_random_bytes_fail_cleanly(data):
    try:
        cf.parse_class(data)
    except ClassFileError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzz_mutated_valid_class(data):
    base = bytearray(_empty_class_bytes())
    n = data.draw(st.integers(min_value=1, max_value=6))
    for _ in range(n):
        pos = data.draw(st.integers(min_value=0, max_value=len(base) - 1))
        base[pos] = data.draw(st.integers(min_value=0, max_value=255))
    try:
        cf.parse_class(bytes(base))
    except ClassFileError:
        pass
