//===- support/CodeWriter.cpp - Indented text emission --------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/CodeWriter.h"
#include <cassert>

using namespace flick;

void CodeWriter::beginLineIfNeeded() {
  if (!AtLineStart)
    return;
  Out.append(static_cast<size_t>(Level) * IndentWidth, ' ');
  AtLineStart = false;
}

CodeWriter &CodeWriter::print(std::string_view Text) {
  if (!Text.empty())
    startLine() += Text;
  return *this;
}

CodeWriter &CodeWriter::line(std::string_view Text) {
  print(Text);
  return endLine();
}

CodeWriter &CodeWriter::blank() { return endLine(); }

CodeWriter &CodeWriter::outdent() {
  assert(Level > 0 && "outdent below level zero");
  --Level;
  return *this;
}

CodeWriter &CodeWriter::open(std::string_view Head) {
  std::string &Line = startLine();
  if (!Head.empty()) {
    Line += Head;
    Line += ' ';
  }
  Line += '{';
  return endLine().indent();
}

CodeWriter &CodeWriter::close(std::string_view Tail) {
  outdent();
  std::string &Line = startLine();
  Line += '}';
  Line += Tail;
  return endLine();
}
