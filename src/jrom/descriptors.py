"""Field and method descriptor parsing.

Type codes are the 3-bit values packed next to 13-bit offsets in quick
static/field instructions: they say which zone holds a value and how wide
it is.
"""

import functools

from .errors import ClassFileError

TC_REF = 0
TC_INT = 1
TC_FLOAT = 2
TC_LONG = 3
TC_DOUBLE = 4
TC_BYTE = 5     # also boolean
TC_CHAR = 6
TC_SHORT = 7

MAX_DIMENSIONS = 255   # of an array type (JVMS 4.3.2)
MAX_ARG_SLOTS = 255    # of a method, its receiver too (JVMS 4.3.3)

_PRIM_CODES = {
    "I": TC_INT, "F": TC_FLOAT, "J": TC_LONG, "D": TC_DOUBLE,
    "B": TC_BYTE, "Z": TC_BYTE, "C": TC_CHAR, "S": TC_SHORT,
}


@functools.lru_cache(maxsize=4096)
def type_code(descriptor):
    """3-bit type code for a field descriptor, one whole field type."""
    if _scan_one(descriptor, 0) != len(descriptor):
        raise ClassFileError("bad field descriptor %r" % descriptor)
    return _PRIM_CODES.get(descriptor[0], TC_REF)


def slot_width(descriptor):
    """Number of 32-bit slots a value of this type occupies (1 or 2)."""
    if not descriptor:
        raise ClassFileError("empty descriptor")
    return 2 if descriptor[0] in "JD" else 1


def _scan_one(desc, i):
    """The end of the field type that starts at ``i`` of ``desc``."""
    start = i
    while i < len(desc) and desc[i] == "[":
        i += 1
    if i - start > MAX_DIMENSIONS:
        raise ClassFileError("array type of %d dimensions, over %d"
                             % (i - start, MAX_DIMENSIONS))
    if i >= len(desc):
        raise ClassFileError("truncated descriptor %r" % desc)
    c = desc[i]
    if c in "BCDFIJSZ":
        return i + 1
    if c == "L":
        end = desc.find(";", i)
        if end < 0:
            raise ClassFileError("unterminated class type in %r" % desc)
        return end + 1
    raise ClassFileError("bad descriptor char %r in %r" % (c, desc))


def parse_method_descriptor(desc):
    """Split ``(...)R`` into a tuple of parameter descriptors and the
    return."""
    return _method(desc)[:2]


def arg_slots(desc, include_receiver):
    """32-bit argument slots of a method, counting long/double as two."""
    n = _method(desc)[2] + bool(include_receiver)
    if n > MAX_ARG_SLOTS:
        raise ClassFileError("%d argument slots, over %d, in %r"
                             % (n, MAX_ARG_SLOTS, desc))
    return n


@functools.lru_cache(maxsize=4096)
def _method(desc):
    """(parameters, return, argument slots) of a method descriptor.  Each
    distinct descriptor is parsed once: a class set names few of them, and
    loading lays out every method.  A bad one is not kept, so it raises
    each time it is asked for."""
    if not desc.startswith("("):
        raise ClassFileError("bad method descriptor %r" % desc)
    params = []
    i = 1
    while i < len(desc) and desc[i] != ")":
        end = _scan_one(desc, i)
        params.append(desc[i:end])
        i = end
    if i >= len(desc) or desc[i] != ")":
        raise ClassFileError("bad method descriptor %r" % desc)
    ret = desc[i + 1:]
    if ret != "V":
        _scan_one(ret, 0)
        if _scan_one(ret, 0) != len(ret):
            raise ClassFileError("trailing junk in %r" % desc)
    elif len(ret) != 1:
        raise ClassFileError("trailing junk in %r" % desc)
    return tuple(params), ret, sum(slot_width(p) for p in params)
