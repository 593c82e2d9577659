// The `fcm serve` wire protocol.
//
// One-shot `fcm_tool` runs rebuild graphs, caches, and plans from scratch
// on every invocation; the resident daemon answers the same queries over a
// socket while keeping the model fleet, the separation caches, and
// the `fcm::exec` pool warm. The protocol is deliberately tiny — a
// length-prefixed binary framing with text payloads — so that clients in
// any language are a few dozen lines and the robustness surface (what a
// malformed peer can do to the server) stays auditable:
//
//   request:   u32 length | u16 opcode | payload bytes
//   response:  u32 length | u16 status | payload bytes
//
// All integers are little-endian. `length` counts the opcode/status word
// plus the payload, so the smallest legal frame is length == 2. Frames
// whose declared length is shorter than the opcode word or longer than the
// decoder's cap are protocol errors: the server answers with a kBadFrame
// response and closes, because the stream offset can no longer be trusted.
// Everything above the framing (an unknown opcode, a malformed query
// parameter) is a *request* error: the server answers with a non-kOk status
// and keeps the connection usable.
//
// Request payloads are ASCII "key=value" pairs separated by single spaces
// (e.g. "hw=6 trials=2000"); response payloads are exactly the bytes the
// equivalent one-shot `fcm_tool` command prints. Byte-identity between the
// serve path and the one-shot path is a hard contract enforced by
// tests/serve/differential_test.cpp and by CI.
//
// One payload key is transport-level rather than query-level: a request may
// carry "deadline_ms=N" anywhere in its payload. The server strips the
// token before the query engine (and before the response memo key, so
// deadline-carrying requests stay byte-identical to deadline-free ones) and
// answers kDeadlineExceeded without evaluating when the deadline passes
// while the request waits for a worker. kPing echoes the stripped payload.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace fcm::serve::protocol {

/// Hard cap on `length` a decoder accepts by default (1 MiB). Queries are
/// short key=value strings; anything near this cap is a corrupt or hostile
/// peer, not a real request.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Bytes of framing before the payload: u32 length + u16 opcode/status.
inline constexpr std::size_t kHeaderBytes = 6;

/// Request opcodes. Values are wire format — never renumber.
enum class Opcode : std::uint16_t {
  kMapping = 1,    ///< integration plan report (== `fcm_tool plan`)
  kInfluence = 2,  ///< influence graph + roles (== `fcm_tool influence`)
  kDepend = 3,     ///< Monte Carlo dependability (== `fcm_tool depend`)
  kReplan = 4,     ///< graceful degradation (== `fcm_tool replan`)
  kPing = 5,       ///< echo; liveness probe for clients and CI
  kMetrics = 6,    ///< fcm::obs registry snapshot as JSON
  kAdversary = 7,  ///< adversarial worst-case fault schedule search
  kRareEvent = 8,  ///< importance-sampled rare-event survival estimate
};

/// Response status codes. Values are wire format — never renumber; new
/// statuses are appended. The terminal-outcome ledger (DESIGN.md §15)
/// partitions every accepted request into exactly one of: kOk, a
/// request-level error (2/3/4), kShuttingDown, kOverloaded,
/// kDeadlineExceeded, or a connection-level failure the peer observes
/// directly.
enum class Status : std::uint16_t {
  kOk = 0,
  kBadFrame = 1,       ///< framing violation; connection is closed after it
  kUnknownOpcode = 2,  ///< connection stays usable
  kBadRequest = 3,     ///< malformed query parameters; connection usable
  kServerError = 4,    ///< handler threw; connection usable
  kShuttingDown = 5,   ///< server is draining; connection closes after it
  kOverloaded = 6,     ///< admission control shed the request (or, on a
                       ///< fresh connection, the connection cap was hit and
                       ///< the connection closes after it); safe to retry —
                       ///< every query is a pure function of its payload
  kDeadlineExceeded = 7,  ///< the request's deadline_ms passed before a
                          ///< worker could start it; never evaluated
};

/// Short stable name ("mapping", "depend", ...) or "op<N>" for unknown
/// values; `parse_opcode` inverts it (returns false on an unknown name).
[[nodiscard]] std::string opcode_name(Opcode opcode);
[[nodiscard]] bool parse_opcode(std::string_view name, Opcode& out);
[[nodiscard]] const char* status_name(Status status) noexcept;

/// One decoded frame. `code` is the opcode of a request or the status of a
/// response, depending on direction.
struct Frame {
  std::uint16_t code = 0;
  std::string payload;
};

/// Serializes one frame (header + payload) into wire bytes.
[[nodiscard]] std::string encode_frame(std::uint16_t code,
                                       std::string_view payload);
inline std::string encode_request(Opcode opcode, std::string_view payload) {
  return encode_frame(static_cast<std::uint16_t>(opcode), payload);
}
inline std::string encode_response(Status status, std::string_view payload) {
  return encode_frame(static_cast<std::uint16_t>(status), payload);
}

/// Incremental frame parser. Feed arbitrary byte chunks exactly as read
/// from the socket — frames split across reads and frames coalesced into
/// one read both decode correctly. A framing violation (declared length
/// < 2 or > the cap) poisons the decoder: every later `next` returns
/// kError, because a stream whose framing lied once has no recoverable
/// offset.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  enum class Result : std::uint8_t {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< `out` holds the next frame
    kError,     ///< framing violation; see error()
  };

  /// Appends raw bytes from the peer.
  void feed(std::string_view bytes);

  /// Extracts the next complete frame, if any.
  Result next(Frame& out);

  /// One-line description of the framing violation after kError.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Bytes buffered but not yet consumed (diagnostic).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  std::uint32_t max_frame_bytes_;
  std::string buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already decoded
  bool poisoned_ = false;
  std::string error_;
};

}  // namespace fcm::serve::protocol
