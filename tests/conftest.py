"""Shared fixtures: the assembled corpus on disk and ready-made pipelines."""

import struct

import pytest

from jrom import classfile as cf
from jrom import constpool as cp
from jrom.pipeline import Pipeline

from .corpus import build_corpus, write_corpus


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(str(root))
    return str(root)


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


# tag -> struct format of the bytes after the tag byte
_CONSTANT_FORMATS = {
    cf.TAG_INTEGER: "i", cf.TAG_FLOAT: "I", cf.TAG_LONG: "q", cf.TAG_DOUBLE: "Q",
    cf.TAG_CLASS: "H", cf.TAG_STRING: "H", cf.TAG_FIELDREF: "HH",
    cf.TAG_METHODREF: "HH", cf.TAG_IFACEMETHODREF: "HH",
    cf.TAG_NAMEANDTYPE: "HH",
}


def serialize_constant(c):
    """On-disk bytes of one pool entry (placeholders serialize to nothing)."""
    if c.tag == cf.TAG_PLACEHOLDER:
        return b""
    if c.tag == cf.TAG_UTF8:
        return struct.pack(">BH", c.tag, len(c.value)) + c.value
    value = c.value if isinstance(c.value, tuple) else (c.value,)
    return struct.pack(">B" + _CONSTANT_FORMATS[c.tag], c.tag, *value)


def raw_pool_byte_size(raw):
    """On-disk byte length of the pool region, entry by entry: loading reads
    it from the parser's offsets, and tests check that the two agree."""
    return sum(len(serialize_constant(c)) for c in raw.raw_pool)


def resolve(pool, space, index):
    """Canonical payload of a pool entry, for before/after comparisons."""
    if space == cp.ATABLE:
        kind, payload = pool.a_kind[index], pool.a_payload[index]
        if kind in (cp.A_UTF8, cp.A_STRING):
            return (kind, payload)
        if kind == cp.A_CLASS:
            return (cp.A_CLASS, payload.name)
        return (kind, payload.owner.name, payload.name, payload.descriptor)
    kind, value = pool.v_kind[index], pool.v_value[index]
    if kind in (cp.V_INT, cp.V_FLOAT):
        return (kind, value)
    if kind in (cp.V_LONG_HI, cp.V_DBL_HI):
        return (kind, (value << 32) | pool.v_value[index + 1])
    if kind in (cp.V_LONG_LO, cp.V_DBL_LO):
        return (pool.v_kind[index - 1],
                (pool.v_value[index - 1] << 32) | value)
    if kind == cp.V_STRING:
        return (cp.V_STRING, pool.a_payload[value])
    hi, lo = value >> 16, value & 0xFFFF
    if kind == cp.V_NAT:
        return (cp.V_NAT, pool.a_payload[hi], pool.a_payload[lo])
    return ((kind,) + resolve(pool, cp.ATABLE, hi)[1:]
            + resolve(pool, cp.ATABLE, lo)[1:])


def make_pipeline(corpus_dir, **flags):
    pipe = Pipeline([corpus_dir], **flags)
    pipe.load_targets(sorted(build_corpus()), closure=True)
    ready_failures = pipe.ready_all()
    assert not ready_failures, ready_failures
    link_failures = pipe.link_all()
    assert not link_failures, link_failures
    return pipe


@pytest.fixture(scope="session")
def linked_pipeline(corpus_dir):
    """Whole corpus loaded, initialized and linked with default flags."""
    return make_pipeline(corpus_dir)


@pytest.fixture(scope="session")
def nointro_pipeline(corpus_dir):
    return make_pipeline(corpus_dir, introspection=False)
