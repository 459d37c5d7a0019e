(** Wire codec of the cluster executor (DESIGN.md §16):
    length-prefixed, CRC32-checksummed [Marshal] frames over a file
    descriptor, carried by {!Net_cluster}'s stream-socket links to local
    process workers and remote workers alike.

    Frame layout: an 8-byte big-endian payload length, a 4-byte
    big-endian CRC32 (IEEE 802.3) of the payload, then the marshalled
    payload.  Structural damage — insane length, CRC mismatch,
    unmarshallable payload — raises {!Corrupt_frame} with a structured
    [Diag] error (rule [T-FRAME]) rather than a bare [Marshal]
    exception. *)

exception Peer_gone
(** The peer is dead: EOF, EPIPE, or connection reset. *)

exception Frame_timeout
(** A frame did not complete within its deadline: the peer is hung.
    The deadline is edge-inclusive — data that arrived {e exactly} at
    the deadline is still read (one final zero-timeout poll decides). *)

exception Corrupt_frame of Dmll_analysis.Diag.t
(** The frame is structurally bad (rule [T-FRAME]). *)

val max_frame_bytes : int
val header_bytes : int

val crc32 : bytes -> int
(** IEEE 802.3 CRC32 of a buffer, in [0, 2{^32}). *)

(** {1 Fd-level codec} — handshake and shutdown frames, which bypass the
    fault injector. *)

val write_frame : Unix.file_descr -> 'a -> unit
(** Marshal and frame one message.  Raises {!Peer_gone} when the peer
    is dead. *)

val read_frame : ?deadline:float -> Unix.file_descr -> 'a
(** Read one frame, optionally bounded by an absolute deadline.
    Raises {!Peer_gone}, {!Frame_timeout}, or {!Corrupt_frame}.  The
    payload goes through [Marshal], which is not memory-safe on crafted
    bytes: use it only on links whose peer has authenticated. *)

(** {1 Frames from unauthenticated peers} *)

(** Immutable data as [Marshal] encodes it: ints, strings, and blocks
    of at most 64 fields (records, variants, options, tuples). *)
type plain = Int of int | Str of string | Block of int * plain array

val decode_plain : bytes -> plain option
(** Decode a [Marshal] payload of plain data with a bounds-checked
    reader that never calls [Marshal]: [None] for anything else —
    floats, shared references, custom blocks, trailing bytes. *)

val read_plain_frame :
  ?deadline:float -> max_bytes:int -> Unix.file_descr -> plain
(** Read one frame of at most [max_bytes] payload bytes from a peer
    that has not authenticated yet, decoded by {!decode_plain}.  Raises
    {!Peer_gone}, {!Frame_timeout}, or {!Corrupt_frame}. *)

(** {1 Counted connections} — every supervised link ({!Net_cluster}).

    A {!conn} counts frames and bytes in both directions (feeding the
    per-link metrics the supervisor publishes) and can host a
    deterministic link-fault injector on its send path: every outgoing
    frame draws a {!Fault.link_fate} and the wrapper delivers it for
    real — delaying, corrupting, severing mid-frame, or blackholing
    ("partitioning") frames on the live socket. *)

type conn

val attach : ?fate:(frame:int -> Fault.link_fate) -> Unix.file_descr -> conn
(** Wrap a connected socket.  [fate] (master side only) is consulted
    once per outgoing frame, keyed by the frame number. *)

val conn_fd : conn -> Unix.file_descr

val send : conn -> 'a -> unit
(** Frame and transmit one message, applying the injected link fate.
    Raises {!Peer_gone} on a dead or injected-severed link.  Frames
    sent while the link is partitioned are silently dropped. *)

val recv : ?deadline:float -> conn -> 'a
(** Read one message.  Frames arriving while the link is partitioned
    are read (and counted) but discarded, as a blackholed link would.
    Raises {!Peer_gone}, {!Frame_timeout}, or {!Corrupt_frame}. *)

val close : conn -> unit
(** Close the underlying fd; idempotent. *)

val bytes_out : conn -> int
val bytes_in : conn -> int
val frames_out : conn -> int
val frames_in : conn -> int

val injected_faults : conn -> int
(** Link faults delivered on this connection. *)

val partitioned : conn -> bool
(** The link is currently inside an injected partition window. *)
