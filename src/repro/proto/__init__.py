"""The serving protocol: typed messages + versioned binary wire format.

This package defines everything that crosses the client/cloud boundary
of the §III-C split deployment — and, just as deliberately, everything
that cannot: the message vocabulary has no way to express raw feature
vectors, codebooks, or encoder configs, so the untrusted serving side
only ever receives encoded (quantized, masked, bit-packed) query
hypervectors.

* :mod:`repro.proto.wire` — the 8-byte-header, length-prefixed frame
  format, version negotiation, the zero-copy
  :class:`FrameDecoder`/:class:`VectoredWriter` pair, and the
  fail-closed :class:`ProtocolError` decoding discipline;
* :mod:`repro.proto.messages` — the typed request/response dataclasses
  (:class:`ScoreRequest`, :class:`ScoreResponse`, :class:`ModelInfo`,
  :class:`ErrorReply`, handshake :class:`Hello`/:class:`Welcome`) and
  their exact round-tripping codecs;
* :mod:`repro.proto.session` — the sans-io :class:`WireSession` state
  machine (handshake → framed steady state) both transports run on,
  and the ``host:port`` parsing both ends of a socket share.
"""

from repro.proto.messages import (
    ERROR_CODES,
    RETRYABLE_ERROR_CODES,
    ErrorReply,
    Hello,
    ModelInfo,
    ModelInfoRequest,
    ScoreRequest,
    ScoreResponse,
    Welcome,
    decode_message,
    encode_message,
    encode_message_parts,
)
from repro.proto.session import WireSession, parse_address, sendmsg_all
from repro.proto.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_MIN_VERSION,
    HEADER_SIZE,
    MAGIC,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    Frame,
    FrameDecoder,
    FrameType,
    ProtocolError,
    VectoredWriter,
    decode_header,
    encode_frame,
    negotiate_version,
)

__all__ = [
    "ERROR_CODES",
    "RETRYABLE_ERROR_CODES",
    "ErrorReply",
    "Hello",
    "ModelInfo",
    "ModelInfoRequest",
    "ScoreRequest",
    "ScoreResponse",
    "Welcome",
    "decode_message",
    "encode_message",
    "encode_message_parts",
    "WireSession",
    "parse_address",
    "sendmsg_all",
    "DEFAULT_MAX_FRAME_BYTES",
    "FRAME_MIN_VERSION",
    "HEADER_SIZE",
    "MAGIC",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "ProtocolError",
    "VectoredWriter",
    "decode_header",
    "encode_frame",
    "negotiate_version",
]
