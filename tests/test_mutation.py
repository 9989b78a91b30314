"""Fixed-seed mutation gates for loading, linking and reloaded code.

Each mutation overwrites one to three random bytes inside one corpus
method's code array, or inside the index fields of one Class, String,
NameAndType or member-ref constant of a corpus class.  Through a class
file, that class is then loaded with its closure and everything loaded is
linked: whatever the bytes say, the class either links or fails with a
JromError, no other exception may escape, and a class whose link fails
stays exactly as loaded.  Through a reloaded image, a method's body is
decoded: it either decodes or fails with a JromError, and a body without a
valid shape fails before decode builds any step.
"""

import os
import random

from jrom import classfile as cf
from jrom import lifecycle as lc
from jrom import romizer as rz
from jrom import verify as vf
from jrom.errors import JromError
from jrom.pipeline import Pipeline

from .conftest import serialize_constant

SEED = 8
MUTATIONS = 2000
POOL_SEED = 10
POOL_MUTATIONS = 5000
IMAGE_SEED = 9
IMAGE_MUTATIONS = 20000


def code_arrays(corpus):
    """(class name, file offset, length) of every non-empty code array."""
    sites = []
    for name in sorted(corpus):
        for m in cf.parse_class(corpus[name][0]).methods:
            attr = m.attr("Code")
            if attr is not None and attr.code.code:
                sites.append((name, attr.code.code_offset, len(attr.code.code)))
    return sites


def pool_indexes(corpus):
    """(class name, file offset, length) of the index fields of every
    constant that names other constants: a Class, String, NameAndType or
    member ref."""
    naming = (cf.TAG_CLASS, cf.TAG_STRING, cf.TAG_NAMEANDTYPE,
              cf.TAG_FIELDREF, cf.TAG_METHODREF, cf.TAG_IFACEMETHODREF)
    sites = []
    for name in sorted(corpus):
        raw = cf.parse_class(corpus[name][0])
        at = raw.pool_entries_start
        for tag, value in zip(raw.pool_tags, raw.pool_values):
            size = len(serialize_constant(tag, value))
            if tag in naming:
                sites.append((name, at + 1, size - 1))     # past the tag
            at += size
        assert at == raw.pool_end, name
    return sites


def mutations(corpus, sites, seed, count):
    """(class name, class file bytes with one of ``sites`` mutated),
    ``count`` times."""
    rng = random.Random(seed)
    for _ in range(count):
        name, start, length = rng.choice(sites)
        data = bytearray(corpus[name][0])
        for _ in range(rng.randint(1, 3)):
            data[start + rng.randrange(length)] = rng.randrange(256)
        yield name, bytes(data)


def load_and_link(classpath, name):
    """"linked", "link failure", or the name of the JromError raised.

    A class whose link fails must be left as loaded: its loaded pool and
    its loaded code objects, never a half-linked copy.
    """
    pipe = Pipeline(classpath)
    try:
        pipe.load_targets([name], closure=True)
        failures = pipe.link_all()
    except JromError as e:
        return type(e).__name__
    for failed, _ in failures:
        cls = pipe.registry.get(failed)
        assert cls.state == lc.LOADED and cls.pool is cls.loaded_pool \
            and all(m.code is m.code_loaded for m in cls.methods), failed
    return "link failure" if failures else "linked"


def gate(corpus, corpus_dir, tmp_path, sites, seed, count):
    """The tally of load_and_link outcomes over the mutations of ``sites``;
    no exception but a JromError may escape."""
    outcomes, escaped = {}, []
    for i, (name, data) in enumerate(mutations(corpus, sites, seed, count)):
        path = tmp_path / (name + ".class")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        try:
            outcome = load_and_link([str(tmp_path), corpus_dir], name)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        except Exception as e:
            escaped.append((i, name, repr(e)))
        finally:
            os.remove(path)
    assert not escaped, escaped[:5]
    return outcomes


def test_mutated_code_fails_only_with_jrom_errors(corpus, corpus_dir,
                                                  tmp_path):
    outcomes = gate(corpus, corpus_dir, tmp_path, code_arrays(corpus), SEED,
                    MUTATIONS)
    # the gate exercises both sides: code that still links, and code that
    # loading or linking rejects
    assert outcomes["linked"] > 0 and len(outcomes) > 3, outcomes


def test_mutated_pool_fails_only_with_jrom_errors(corpus, corpus_dir,
                                                  tmp_path):
    """Prelinking reads each NameAndType and Utf8 straight from the raw
    pool: a constant that names the wrong slot, or another valid one,
    still fails only with a JromError."""
    outcomes = gate(corpus, corpus_dir, tmp_path, pool_indexes(corpus),
                    POOL_SEED, POOL_MUTATIONS)
    # classes that still link, parse faults, and faults past parsing
    assert outcomes["linked"] > 0 and outcomes["BadIndex"] > 0, outcomes
    assert len(outcomes) > 3, outcomes


def test_mutated_image_code_decodes_or_fails_with_jrom_errors(
        linked_pipeline, monkeypatch):
    registry = rz.load_image(linked_pipeline.emit_image())
    bodies = [m for cls in sorted(registry.loadable(), key=lambda c: c.name)
              for m in cls.methods if m.code is not None and m.code.bytecode]
    built = []                  # one entry per step decode builds
    decode = vf._decode
    monkeypatch.setattr(vf, "_decode",
                        lambda *args: built.append(1) or decode(*args))
    rng = random.Random(IMAGE_SEED)
    outcomes, escaped = {}, []
    for i in range(IMAGE_MUTATIONS):
        m = rng.choice(bodies)
        code = m.code.clone()
        for _ in range(rng.randint(1, 3)):
            code.bytecode[rng.randrange(len(code.bytecode))] = \
                rng.randrange(256)
        built.clear()
        try:
            vf.decoded(m, code, m.owner.pool, registry)
            outcome = "decoded"
        except JromError as e:
            outcome = type(e).__name__
            assert code.shape is None and code.decoded is None, i
            assert not built, (i, m, e)
        except Exception as e:
            escaped.append((i, m, repr(e)))
            continue
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert not escaped, escaped[:5]
    # both sides: bodies that still decode, and each kind of structural fault
    assert outcomes["decoded"] > 0 and outcomes["VerifyError"] > 0, outcomes
    assert len(outcomes) > 2, outcomes
