"""Exception hierarchy shared across the toolchain."""


class JromError(Exception):
    """Base class for every error raised by this package."""


# --- class file parsing ---

class ClassFileError(JromError):
    """Malformed or unsupported .class input."""


class BadMagic(ClassFileError):
    pass


class Truncated(ClassFileError):
    pass


class BadIndex(ClassFileError):
    """Constant pool index out of range or pointing at the wrong tag."""


class BadUtf8(ClassFileError):
    pass


class BadTag(ClassFileError):
    """Unknown constant pool tag byte."""


class UnsupportedVersion(ClassFileError):
    pass


# --- runtime pool ---

class DanglingIndex(JromError):
    """A raw constant referenced a slot that does not exist."""


class IndexOutOfRange(JromError):
    pass


class PoolOverflow(JromError):
    """A table index does not fit the operand or cell layout it must occupy."""


# --- lifecycle ---

class InvalidName(JromError):
    pass


class InvalidTransition(JromError):
    """Attempted a class state change outside the allowed lifecycle edges."""


class NameMismatch(JromError):
    pass


class HierarchyCycle(JromError):
    pass


class StaticOverflow(JromError):
    """Static zone offset does not fit the 13-bit encoding."""


class BadOpcode(JromError):
    pass


class BadPoolRef(JromError):
    """Instruction operand resolved to a constant of the wrong kind."""


class UnsupportedClinit(JromError):
    """<clinit> could not be executed by the built-in interpreter."""


class ClassNotFound(JromError):
    pass


class ClassUnreadable(JromError):
    """A class file is on the classpath but could not be read."""


# --- linking ---

class VerifyError(JromError):
    """Structural bytecode check failed."""


class NoSuchField(JromError):
    pass


class NoSuchMethod(JromError):
    pass


class InternalError(JromError):
    """Invariant breach that indicates a bug in the toolchain itself."""


# --- interpreter ---

class InterpError(JromError):
    """Base for faults raised by the verification interpreter."""


class UnsupportedOpcode(InterpError):
    def __init__(self, opcode, offset):
        super().__init__("unsupported opcode 0x%02x at offset %d" % (opcode, offset))
        self.opcode = opcode
        self.offset = offset


class StackUnderflow(InterpError):
    pass


class StackOverflow(InterpError):
    pass


# --- romizer ---

class StageNotReached(JromError):
    pass


class NotLinked(JromError):
    pass


class IncompleteClosure(JromError):
    def __init__(self, missing):
        super().__init__("classes referenced but not in the image set: %s"
                         % ", ".join(sorted(missing)))
        self.missing = sorted(missing)


class BadImageMagic(JromError):
    pass


class VersionMismatch(JromError):
    pass


class Corrupt(JromError):
    def __init__(self, message, offset):
        super().__init__("%s (at image offset %d)" % (message, offset))
        self.offset = offset
