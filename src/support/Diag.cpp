//===- support/Diag.cpp - Diagnostics and fatal errors -------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "support/Diag.h"
#include "support/OStream.h"

#include <cstdlib>

using namespace omm;

void DiagSink::add(DiagKind Kind, std::string Message) {
  Diags.push_back(Diag{Kind, std::move(Message)});
}

unsigned DiagSink::errorCount() const {
  unsigned Count = 0;
  for (const Diag &D : Diags)
    if (D.Kind == DiagKind::Error)
      ++Count;
  return Count;
}

unsigned DiagSink::warningCount() const {
  unsigned Count = 0;
  for (const Diag &D : Diags)
    if (D.Kind == DiagKind::Warning)
      ++Count;
  return Count;
}

bool DiagSink::containsMessage(std::string_view Needle) const {
  for (const Diag &D : Diags)
    if (D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

void omm::reportFatalError(std::string_view Message) {
  errs() << "fatal error: " << Message << '\n';
  errs().flush();
  std::abort();
}
