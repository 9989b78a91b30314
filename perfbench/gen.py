"""Seeded generator of class sets for the romize benchmark.

    python3 perfbench/gen.py N SEED OUT_DIR

writes N generated classes, one interface per package and the bootstrap
``java/lang`` classes of the test corpus as ``.class`` files under OUT_DIR.
The same (N, SEED) always gives byte-identical files.

Shape of the set:

- classes sit in superclass chains of ``CHAIN`` and in packages of
  ``PACKAGE``; every class implements its package's interface ``Sized``;
- each class has a ``ConstantValue`` int static ``K<i>`` and String static
  ``S<i>``, an ``ldc`` of an int no other class uses, a cross-class
  ``invokestatic``, a ``getstatic`` of its chain root's ``K`` through its own
  name (resolved along the chain), the interface method ``size()I`` and an
  ``invokevirtual`` of it, a string literal and an exception handler;
- one class per chain, at a seeded position, has a ``<clinit>``: one class
  in ten.  Every ``<clinit>`` makes ready copy every static zone, so a
  ``<clinit>`` in every class would bury load and link under ready.
"""

import os
import random
import sys
from dataclasses import dataclass

CHAIN = 10
PACKAGE = 50


def use_checkout(root):
    """Make the checkout's ``src/jrom`` and ``tests`` importable, or exit."""
    for rel in ("src/jrom/cli.py", "tests/assembler.py", "tests/corpus.py"):
        if not os.path.isfile(os.path.join(root, rel)):
            sys.exit("perfbench: %s not found under %s" % (rel, root))
    for path in (os.path.join(root, "src"), root):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    import jrom
    import tests
    for mod, where in ((jrom, "src"), (tests, "tests")):
        got = os.path.realpath(os.path.dirname(mod.__file__))
        if not got.startswith(os.path.realpath(os.path.join(root, where))):
            sys.exit("perfbench: %s imported from %s, not from the checkout"
                     % (mod.__name__, got))


@dataclass
class ClassSet:
    files: dict             # binary name -> .class bytes
    methods_with_code: int  # what `romize --verify` must report as checked


def count_code(cb):
    """Methods of a ClassBuilder that have a body."""
    return sum(1 for *_, code in cb.methods if code is not None)


def generate(n, seed):
    """Deterministic set of ``n`` generated classes plus interfaces."""
    from tests.assembler import (ACC_ABSTRACT, ACC_FINAL, ACC_INTERFACE,
                                 ACC_PRIVATE, ACC_PUBLIC, ACC_STATIC,
                                 ClassBuilder)
    if n < 1:
        raise ValueError("need at least one class")
    rng = random.Random(seed)
    uniq = rng.sample(range(1 << 20, 1 << 30), 2 * n)
    clinit_at = {start + rng.randrange(min(CHAIN, n - start))
                 for start in range(0, n, CHAIN)}
    from tests.corpus import build_corpus
    boot = {name: built for name, built in build_corpus().items()
            if name.startswith("java/")}
    files = {name: data for name, (data, _) in boot.items()}
    methods = sum(count_code(cb) for _, cb in boot.values())

    def pkg(i):
        return "gen/p%03d" % (i // PACKAGE)

    def name(i):
        return "%s/C%05d" % (pkg(i), i)

    for p in range(0, n, PACKAGE):
        cb = ClassBuilder(pkg(p) + "/Sized",
                          flags=ACC_PUBLIC | ACC_INTERFACE | ACC_ABSTRACT)
        cb.method("size", "()I", ACC_PUBLIC | ACC_ABSTRACT)
        files[cb.name] = cb.build()

    for i in range(n):
        me = name(i)
        root = i - i % CHAIN
        sup = name(i - 1) if i != root else "java/lang/Object"
        cb = ClassBuilder(me, super_name=sup, interfaces=(pkg(i) + "/Sized",))
        cb.field("K%d" % i, "I", ACC_PUBLIC | ACC_STATIC | ACC_FINAL,
                 const=("i", uniq[n + i]))
        cb.field("S%d" % i, "Ljava/lang/String;",
                 ACC_PUBLIC | ACC_STATIC | ACC_FINAL,
                 const=("s", "s%d-%08x" % (i, rng.getrandbits(32))))
        cb.field("n", "I", ACC_PRIVATE)

        c = cb.method("<init>", "()V", ACC_PUBLIC)
        c.op("aload_0").invoke("invokespecial", sup, "<init>", "()V")
        c.op("aload_0").op("bipush", i % 100).putfield(me, "n", "I")
        c.op("return")

        c = cb.method("size", "()I", ACC_PUBLIC)
        c.op("aload_0").getfield(me, "n", "I").op("iconst_1").op("iadd")
        c.op("ireturn")

        # leaf: the chain root's static read through this class's own name
        c = cb.method("base", "(I)I", ACC_PUBLIC | ACC_STATIC)
        c.op("iload_0").getstatic(me, "K%d" % root, "I").op("iadd")
        if i in clinit_at:
            c.getstatic(me, "T", "I").op("ixor")
        c.op("ireturn")

        # unique ldc, a division that throws on 0, and a cross-class call
        other = rng.randrange(n)
        c = cb.method("calc", "(I)I", ACC_PUBLIC | ACC_STATIC)
        c.label("try")
        c.ldc_int(uniq[i]).op("iload_0").op("idiv")
        c.op("iload_0").invoke("invokestatic", name(other), "base", "(I)I")
        c.op("iadd").op("ireturn")
        c.label("end")
        c.label("handler")
        c.op("pop").op("iconst_m1").op("ireturn")
        c.handler("try", "end", "handler", "java/lang/ArithmeticException")

        c = cb.method("probe", "(I)I", ACC_PUBLIC | ACC_STATIC)
        c.new(me).op("dup").invoke("invokespecial", me, "<init>", "()V")
        c.invoke("invokevirtual", me, "size", "()I")
        c.op("iload_0").op("iadd").op("ireturn")

        c = cb.method("label", "(I)Ljava/lang/String;",
                      ACC_PUBLIC | ACC_STATIC)
        c.op("iload_0").op("ifeq", "field")
        c.ldc_str("lit%d-%08x" % (i, rng.getrandbits(32))).op("areturn")
        c.label("field").getstatic(me, "S%d" % i, "Ljava/lang/String;")
        c.op("areturn")

        if i in clinit_at:
            cb.field("T", "I", ACC_PUBLIC | ACC_STATIC)
            c = cb.method("<clinit>", "()V", ACC_STATIC)
            c.getstatic(me, "K%d" % i, "I").op("iconst_3").op("imul")
            c.putstatic(me, "T", "I").op("return")

        methods += count_code(cb)
        files[me] = cb.build()
    return ClassSet(files, methods)


def write(files, out_dir):
    for cls_name, data in files.items():
        path = os.path.join(out_dir, cls_name.replace("/", os.sep) + ".class")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)


def main(argv=None):
    import argparse
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int)
    ap.add_argument("seed", type=int)
    ap.add_argument("out_dir")
    args = ap.parse_args(argv)
    use_checkout(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    cs = generate(args.n, args.seed)
    write(cs.files, args.out_dir)
    print("%d classes (%d methods with code) in %s"
          % (len(cs.files), cs.methods_with_code, args.out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
