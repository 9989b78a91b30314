"""Fixed-seed mutation gate for loading and linking.

Each mutation overwrites one to three random bytes inside one corpus
method's code array, then loads that class with its closure and links
everything loaded.  Whatever the bytes say, the class either links or fails
with a JromError: no other exception may escape, and a class whose link
fails stays exactly as loaded.
"""

import os
import random

from jrom import classfile as cf
from jrom import lifecycle as lc
from jrom.errors import JromError
from jrom.pipeline import Pipeline

SEED = 8
MUTATIONS = 2000


def code_arrays(corpus):
    """(class name, file offset, length) of every non-empty code array."""
    sites = []
    for name in sorted(corpus):
        for m in cf.parse_class(corpus[name][0]).methods:
            attr = m.attr("Code")
            if attr is not None and attr.code.code:
                sites.append((name, attr.code.code_offset, len(attr.code.code)))
    return sites


def mutations(corpus, seed, count):
    """(class name, mutated class file bytes), ``count`` times."""
    rng = random.Random(seed)
    sites = code_arrays(corpus)
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


def test_mutated_code_fails_only_with_jrom_errors(corpus, corpus_dir,
                                                  tmp_path):
    outcomes, escaped = {}, []
    for i, (name, data) in enumerate(mutations(corpus, SEED, MUTATIONS)):
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
    # the gate exercises both sides: code that still links, and code that
    # loading or linking rejects
    assert outcomes["linked"] > 0 and len(outcomes) > 3, outcomes
