"""Exception types shared across the switch."""


class SwitchError(Exception):
    """Base for all switch errors."""


# -- codec ------------------------------------------------------------------

class CodecError(SwitchError):
    """Base for wire codec failures."""


class BadVersion(CodecError):
    pass


class BadLength(CodecError):
    pass


class BadType(CodecError):
    pass


class BadMultipart(BadType):
    """A multipart request or reply of a kind the switch does not know."""


class BadActionType(BadType):
    """An action of a type the codec does not know."""


class BadInstructionType(BadType):
    """An instruction of a type the codec does not know."""


class BadBandType(BadType):
    """A meter band of a type the codec does not know."""


class BadMatch(CodecError):
    pass


class Unencodable(CodecError):
    pass


class DesyncError(CodecError):
    """Stream framing lost sync; the connection must be dropped."""


# -- packet parsing / editing ----------------------------------------------

class ParseError(SwitchError):
    pass


class TruncatedFrame(ParseError):
    pass


class RunawayParse(ParseError):
    """Internal guard tripped; should be unreachable."""


class FieldAbsent(SwitchError):
    """Set-field on a field the packet does not carry."""


class PopEmpty(SwitchError):
    """Pop-tag with no tag present."""


# -- datapath ----------------------------------------------------------------

class DatapathError(SwitchError):
    pass


class BadTableId(DatapathError):
    pass


class OverlapError(DatapathError):
    pass


class BadInstruction(DatapathError):
    pass


class BadGroupId(DatapathError):
    pass


class BadGroupType(BadGroupId):
    """A group type OpenFlow 1.3 does not define."""


class BadMeterId(DatapathError):
    pass


class BadOutGroup(DatapathError):
    """A flow's group action names a group that does not exist."""


class BadPort(DatapathError):
    pass


# -- stateful extension -------------------------------------------------------

class StatefulError(SwitchError):
    pass


class BadTable(StatefulError):
    pass


class BadScope(StatefulError):
    pass


class ScopeWidthMismatch(StatefulError):
    pass


class BadTemplate(StatefulError):
    pass


# -- channel ------------------------------------------------------------------

class HelloFailed(SwitchError):
    pass


# -- harness ------------------------------------------------------------------

class UnroutableFlow(SwitchError):
    pass


# -- dpctl --------------------------------------------------------------------

class UsageError(SwitchError):
    pass


class ConnectError(SwitchError):
    pass


class ProtocolError(SwitchError):
    """The switch answered with an OpenFlow Error message."""

    def __init__(self, err_type, err_code, data=b""):
        super().__init__(f"OpenFlow error type={err_type} code={err_code}")
        self.err_type = err_type
        self.err_code = err_code
        self.data = data
