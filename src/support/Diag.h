//===- support/Diag.h - Diagnostics and fatal errors -----------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error reporting for a library that uses neither exceptions nor RTTI.
/// Unrecoverable conditions (programming errors, simulated-machine faults
/// that a real Cell would turn into a bus error) call reportFatalError.
/// Recoverable, user-visible conditions are collected through DiagSink so
/// tests can assert on them and tools can render them; this mirrors how the
/// paper's compiler "generates an exception providing information which the
/// programmer can use" on a domain miss (Section 4.1).
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SUPPORT_DIAG_H
#define OMM_SUPPORT_DIAG_H

#include <string>
#include <string_view>
#include <vector>

namespace omm {

/// Severity of a collected diagnostic.
enum class DiagKind { Note, Warning, Error };

/// One collected diagnostic message.
struct Diag {
  DiagKind Kind;
  std::string Message;
};

/// Collects diagnostics emitted by library components.
///
/// Components that can produce user-actionable reports (DMA race checker,
/// domain dispatch, word-pointer legality checks) write here rather than to
/// stderr so unit tests can assert on message content.
class DiagSink {
public:
  void note(std::string Message) { add(DiagKind::Note, std::move(Message)); }
  void warning(std::string Message) {
    add(DiagKind::Warning, std::move(Message));
  }
  void error(std::string Message) { add(DiagKind::Error, std::move(Message)); }

  const std::vector<Diag> &diags() const { return Diags; }

  /// \returns the number of diagnostics of severity Error.
  unsigned errorCount() const;

  /// \returns the number of diagnostics of severity Warning.
  unsigned warningCount() const;

  /// \returns true if any collected message contains \p Needle.
  bool containsMessage(std::string_view Needle) const;

  /// Forgets all collected diagnostics.
  void clear() { Diags.clear(); }

private:
  void add(DiagKind Kind, std::string Message);

  std::vector<Diag> Diags;
};

/// Prints "fatal error: <message>" to stderr and aborts.
///
/// Used for conditions that are bugs in the caller (out-of-bounds simulated
/// access, misaligned DMA, allocator exhaustion) where continuing would
/// corrupt the simulation. Never returns.
[[noreturn]] void reportFatalError(std::string_view Message);

} // namespace omm

#endif // OMM_SUPPORT_DIAG_H
